//! The paper's experiments as [`Scenario`] presets.
//!
//! Each function returns the declarative scenario of one evaluation
//! section at the paper's parameters. A caller changes a cell by setting
//! the scenario's own fields (`stop`, `traffic`, `topology`, `seeds`,
//! `overrides`, `probes.sample_ns`) and runs it through
//! [`crate::backend::Backend::run`]; the [`crate::report::RunReport`] that
//! returns is the result — named series (`queue_kb`, `util`, `flow{i}`,
//! `cc{i}`) and scalars (`reaction_us`, `peak_queue_kb`, `jain_p{p}`, …).

use crate::scenario::{
    CcOverrides, LinkSpec, ProbeSpec, Scenario, StopCondition, TopologySpec, TrafficSpec,
};
use fncc_cc::CcKind;
use fncc_des::time::TimeDelta;

pub use crate::scenario::Workload;

/// §5.1/§5.2: the dumbbell of Fig. 10 (M = 3 switches) at `gbps`. Flow 0
/// starts at t = 0 at line rate; flow 1 joins at 300 µs. Its report holds
/// the series of Figs. 1b–d, 3 and 9 (1 µs samples; a 1200 µs horizon
/// covers Fig. 9's x-axis).
pub fn elephants(cc: CcKind, gbps: u64, horizon_us: u64) -> Scenario {
    Scenario {
        name: format!("elephant-dumbbell-{}", cc.name()),
        topology: TopologySpec::Dumbbell {
            senders: 2,
            switches: 3,
        },
        link: LinkSpec {
            gbps,
            prop_ns: 1500,
        },
        traffic: TrafficSpec::Elephants { join_at_us: 300 },
        cc,
        overrides: CcOverrides::default(),
        probes: ProbeSpec::micro(1000, 2),
        foreground: None,
        faults: Vec::new(),
        stop: StopCondition::Horizon { us: horizon_us },
        seeds: vec![1],
        threads: 0,
    }
}

/// §5.4: congestion in the first/middle/last hop (Fig. 11 topologies,
/// 100 G). Flow 0 runs from switch 0; flow 1 joins at 300 µs attached at
/// the congestion switch. Its report holds Fig. 13a–d's series and the
/// `lhcs_triggers` scalar.
pub fn hop_location(cc: CcKind, loc: HopLocation, horizon_us: u64) -> Scenario {
    Scenario {
        name: format!("hop-{}-{}", loc.name(), cc.name()),
        topology: TopologySpec::Line {
            switches: 3,
            attach: vec![0, loc.attach()],
        },
        probes: ProbeSpec {
            sample_ns: 1000,
            congestion_point: true,
            flow_rates: 2,
            cc_rates: 0,
            trace: false,
        },
        ..elephants(cc, 100, horizon_us)
    }
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
    fn attach(self) -> u32 {
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

/// §5.3: `n` senders join a shared 100 G bottleneck one `interval` apart
/// and leave in join order (Fig. 13e; the paper uses 100 ms intervals —
/// pass a compressed interval for cheap runs; the dynamics are
/// interval-invariant). Its report holds the `flow{i}` rate series, the
/// Jain index of every period (`jain_p{p}`) and `all_finished`.
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

/// §5.5: Poisson arrivals from `workload` at 50 % load on the k = 8
/// fat-tree (128 hosts) with symmetric ECMP, 400 flows × seeds 1 and 2,
/// drained. Its report holds the FCT-slowdown rows per flow-size bucket.
pub fn fattree_workload(cc: CcKind, workload: Workload) -> Scenario {
    Scenario {
        name: format!(
            "fattree-{}-{}",
            workload.name().to_ascii_lowercase(),
            cc.name()
        ),
        topology: TopologySpec::FatTree { k: 8 },
        link: LinkSpec::default(),
        traffic: TrafficSpec::Poisson {
            workload,
            load: 0.5,
            flows: 400,
        },
        cc,
        overrides: CcOverrides::default(),
        probes: ProbeSpec::default(),
        foreground: None,
        faults: Vec::new(),
        stop: StopCondition::Drain { cap_ms: 200 },
        seeds: vec![1, 2],
        threads: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, PacketBackend};
    use crate::report::RunReport;

    /// Small, fast variant of the microbenchmark for unit tests.
    fn quick(mut sc: Scenario) -> Scenario {
        sc.traffic = TrafficSpec::Elephants { join_at_us: 150 };
        sc.probes.sample_ns = 2000;
        sc
    }

    fn run(sc: &Scenario) -> RunReport {
        PacketBackend::default().run(sc)
    }

    fn dumbbell(cc: CcKind) -> RunReport {
        run(&quick(elephants(cc, 100, 500)))
    }

    fn hop(loc: HopLocation, disable_lhcs: bool) -> RunReport {
        let mut sc = quick(hop_location(CcKind::Fncc, loc, 500));
        sc.overrides.disable_lhcs = disable_lhcs;
        run(&sc)
    }

    fn scalar(r: &RunReport, name: &str) -> f64 {
        r.scalar(name).unwrap_or(0.0)
    }

    #[test]
    fn elephant_fncc_reacts_and_keeps_queue_shallow() {
        let r = dumbbell(CcKind::Fncc);
        assert!(r.scalar("reaction_us").is_some(), "FNCC never reacted");
        let peak = scalar(&r, "peak_queue_kb");
        assert!(peak > 0.0);
        assert!(peak < 500.0, "peak {peak}KB");
        let util = scalar(&r, "mean_util");
        assert!(util > 0.7, "util {util}");
        assert!(!r.indexed_scalars("int_age_us_hop").is_empty());
    }

    #[test]
    fn elephant_fncc_reacts_before_hpcc_with_shallower_queue() {
        let f = dumbbell(CcKind::Fncc);
        let h = dumbbell(CcKind::Hpcc);
        let (fr, hr) = (
            f.scalar("reaction_us").unwrap(),
            h.scalar("reaction_us").unwrap(),
        );
        assert!(fr <= hr, "FNCC {fr}us vs HPCC {hr}us");
        let (fq, hq) = (scalar(&f, "peak_queue_kb"), scalar(&h, "peak_queue_kb"));
        assert!(fq <= hq * 1.05, "queues F{fq} H{hq}");
        // FNCC's INT (via ACK) must be fresher than HPCC's on the first hop.
        let (fa, ha) = (
            f.indexed_scalars("int_age_us_hop"),
            h.indexed_scalars("int_age_us_hop"),
        );
        assert!(fa[0] < ha[0], "INT age F{fa:?} H{ha:?}");
    }

    #[test]
    fn hop_congestion_runs_at_all_locations() {
        for loc in [HopLocation::First, HopLocation::Middle, HopLocation::Last] {
            let r = hop(loc, false);
            assert!(scalar(&r, "peak_queue_kb") > 0.0, "{loc:?} saw no queue");
            let util = scalar(&r, "mean_util");
            assert!(util > 0.5, "{loc:?} util {util}");
        }
    }

    #[test]
    fn lhcs_fires_only_at_last_hop() {
        let last = hop(HopLocation::Last, false);
        assert!(
            scalar(&last, "lhcs_triggers") > 0.0,
            "LHCS silent at last hop"
        );
        let first = hop(HopLocation::First, false);
        assert_eq!(
            scalar(&first, "lhcs_triggers"),
            0.0,
            "LHCS fired at first hop"
        );
        let mut sc = quick(hop_location(CcKind::Fncc, HopLocation::Last, 500));
        sc.overrides.disable_lhcs = true;
        let disabled = run(&sc);
        assert_eq!(scalar(&disabled, "lhcs_triggers"), 0.0);
        assert!(sc.overrides.disable_lhcs);
    }

    #[test]
    fn fairness_staircase_converges() {
        let r = run(&staircase_scenario(
            CcKind::Fncc,
            3,
            TimeDelta::from_us(400),
            1,
        ));
        assert_eq!(r.series.len(), 3);
        let jain = r.indexed_scalars("jain_p");
        assert!(!jain.is_empty());
        // Single-flow periods are trivially fair; shared periods should be
        // reasonably fair too.
        let min_jain = jain.iter().copied().fold(1.0, f64::min);
        assert!(min_jain > 0.6, "Jain {min_jain} ({jain:?})");
    }

    #[test]
    fn tiny_fattree_workload_completes() {
        let mut sc = fattree_workload(CcKind::Fncc, Workload::FbHadoop);
        sc.topology = TopologySpec::FatTree { k: 4 };
        sc.traffic = TrafficSpec::Poisson {
            workload: Workload::FbHadoop,
            load: 0.3,
            flows: 60,
        };
        sc.seeds = vec![1];
        let r = run(&sc);
        assert_eq!(r.unfinished, vec![0], "flows left unfinished");
        let total: usize = r.slowdowns.iter().map(|b| b.count).sum();
        assert_eq!(total, 60);
        for b in &r.slowdowns {
            if b.count > 0 {
                assert!(b.avg >= 1.0, "slowdown below 1 in {}", b.label);
                assert!(b.p99 >= b.p50);
            }
        }
    }

    #[test]
    fn microbench_scenario_is_faithful() {
        let sc = quick(elephants(CcKind::Fncc, 100, 500));
        let (topo, flows) = sc.instance(1);
        assert_eq!(topo.n_hosts, 3);
        assert_eq!(flows.len(), 2);
        // 100 Gb/s × 500 µs × 1.5 / 8 = 9.375 MB elephants.
        assert_eq!(flows[0].size, 9_375_000);
        // Live-read override maps to 0 and back to None.
        let mut live = sc.clone();
        live.overrides.int_refresh_us = 0;
        assert_eq!(live.overrides.int_refresh(), None);
        assert_eq!(sc.overrides.int_refresh(), Some(TimeDelta::from_us(1)));
    }

    #[test]
    fn every_preset_is_a_valid_scenario_document() {
        let locs = [HopLocation::First, HopLocation::Middle, HopLocation::Last];
        let presets = [100, 200, 400]
            .map(|gbps| elephants(CcKind::Fncc, gbps, 1200))
            .into_iter()
            .chain(locs.map(|loc| hop_location(CcKind::Hpcc, loc, 800)))
            .chain([staircase_scenario(
                CcKind::Fncc,
                4,
                TimeDelta::from_ms(1),
                1,
            )])
            .chain(
                [Workload::WebSearch, Workload::FbHadoop]
                    .map(|w| fattree_workload(CcKind::Dcqcn, w)),
            );
        for sc in presets {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(
                Scenario::from_json(&sc.to_json()).unwrap(),
                sc,
                "{}",
                sc.name
            );
        }
    }
}
