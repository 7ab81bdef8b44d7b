//! Ablations beyond the paper's figures: LHCS parameter sweeps, periodic
//! `All_INT_Table` refresh, cumulative-ACK granularity, and the Timely/Swift
//! extension baselines.

use crate::report::{emit_table, f2, f3, num, opt_us};
use crate::RunOpts;
use fncc_cc::{CcAlgo, CcKind, LhcsConfig};
use fncc_core::prelude::*;
use fncc_core::sim::SimBuilder;
use fncc_des::output::Table;
use fncc_des::time::TimeDelta;
use fncc_net::config::FabricConfig;
use fncc_net::ids::SwitchId;
use fncc_transport::FlowSpec;

/// β/α sweep for LHCS on the last-hop scenario: lower β drains the queue
/// harder at the cost of utilization; α gates trigger sensitivity.
pub fn lhcs_sweep(opts: &RunOpts) {
    let line = Bandwidth::gbps(100);
    let mut t = Table::new([
        "beta",
        "alpha",
        "peak_queue_KB",
        "mean_util",
        "lhcs_triggers",
    ]);
    let frames = FabricConfig::paper_default();
    for &beta in &[0.8, 0.9, 0.95, 1.0] {
        for &alpha in &[1.01, 1.05, 1.2] {
            let topo = Topology::line(3, &[0, 2], line, TimeDelta::from_ns(1500));
            let base_rtt = topo.base_rtt(frames.mtu, frames.ack_base);
            // Paper-default construction via the one shared factory; only
            // the swept LHCS knobs are overridden on top.
            let mut algo = fncc_core::sim::make_algo(CcKind::Fncc, line, base_rtt);
            if let CcAlgo::Fncc(ref mut cfg) = algo {
                cfg.lhcs = LhcsConfig {
                    enabled: true,
                    alpha,
                    beta,
                };
            }
            let horizon = SimTime::from_us(800);
            let elephant = (line.as_f64() / 8.0 * horizon.as_secs_f64() * 1.5) as u64;
            let flows = vec![
                FlowSpec {
                    id: FlowId(0),
                    src: HostId(0),
                    dst: HostId(2),
                    size: elephant,
                    start: SimTime::ZERO,
                },
                FlowSpec {
                    id: FlowId(1),
                    src: HostId(1),
                    dst: HostId(2),
                    size: elephant,
                    start: SimTime::from_us(300),
                },
            ];
            let sw = SwitchId(2);
            let port = fncc_core::sim::Sim::egress_port_on_path(
                &topo,
                HostId(0),
                HostId(2),
                FlowId(0),
                sw,
            )
            .unwrap();
            let mut sim = SimBuilder::with_algo(topo, algo)
                .flows(flows)
                .sample(TimeDelta::from_us(1), horizon)
                .watch(Probe::Queue { sw, port }, "queue_kb")
                .watch(Probe::Util { sw, port }, "util")
                .build();
            sim.run_until(horizon);
            let telem = sim.telemetry();
            let q = telem.series("queue_kb").unwrap();
            let u = telem.series("util").unwrap();
            let triggers: u64 = (0..2u32)
                .map(|i| sim.host(HostId(i)).lhcs_triggers(FlowId(i)).unwrap_or(0))
                .sum();
            t.row([
                f2(beta),
                f2(alpha),
                f2(q.max()),
                f3(u.mean_in(SimTime::from_us(300), horizon)),
                triggers.to_string(),
            ]);
        }
    }
    emit_table(
        &opts.out,
        "ablation_lhcs",
        "Ablation — LHCS α/β sweep (last-hop congestion)",
        &t,
    );
}

/// Periodic `All_INT_Table` refresh: how stale may the table get before
/// FNCC's advantage erodes?
pub fn int_refresh_sweep(opts: &RunOpts) {
    let mut t = Table::new(["refresh", "reaction_us", "peak_queue_KB", "mean_util"]);
    for (label, refresh_us) in [("live", 0), ("1us", 1), ("5us", 5), ("20us", 20)] {
        let mut sc = elephants(CcKind::Fncc, 100, opts.micro_horizon_us());
        sc.overrides.int_refresh_us = refresh_us;
        let r = PacketBackend::default().run(&sc);
        t.row([
            label.to_string(),
            opt_us(r.scalar("reaction_us")),
            f2(num(&r, "peak_queue_kb")),
            f3(num(&r, "mean_util")),
        ]);
    }
    emit_table(
        &opts.out,
        "ablation_int_refresh",
        "Ablation — All_INT_Table refresh period (Fig. 8's management module)",
        &t,
    );
}

/// Cumulative-ACK granularity m (§3.2.3): coarser ACKs cost notification
/// freshness.
pub fn ack_coalescing_sweep(opts: &RunOpts) {
    let line = Bandwidth::gbps(100);
    let mut t = Table::new([
        "ack_every_m",
        "reaction_us",
        "peak_queue_KB",
        "acks_delivered",
    ]);
    for m in [1u32, 2, 4, 8] {
        let topo = Topology::dumbbell(2, 3, line, TimeDelta::from_ns(1500));
        let horizon = SimTime::from_us(opts.micro_horizon_us());
        let join = SimTime::from_us(300);
        let elephant = (line.as_f64() / 8.0 * horizon.as_secs_f64() * 1.5) as u64;
        let flows = vec![
            FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(2),
                size: elephant,
                start: SimTime::ZERO,
            },
            FlowSpec {
                id: FlowId(1),
                src: HostId(1),
                dst: HostId(2),
                size: elephant,
                start: join,
            },
        ];
        let (sw, flow, host) = (SwitchId(0), FlowId(0), HostId(0));
        let mut sim = SimBuilder::new(topo, CcKind::Fncc)
            .ack_every(m)
            .flows(flows)
            .sample(TimeDelta::from_us(1), horizon)
            .watch(Probe::Queue { sw, port: 2 }, "queue_kb")
            .watch(Probe::FlowRate { flow, host }, "flow0")
            .build();
        sim.run_until(horizon);
        let telem = sim.telemetry();
        let rate = telem.series("flow0").unwrap();
        let reaction = fncc_core::metrics::reaction_time(rate, join, 90.0).map(|x| x.as_us_f64());
        t.row([
            m.to_string(),
            opt_us(reaction),
            f2(telem.series("queue_kb").unwrap().max()),
            telem.counters.acks_delivered.to_string(),
        ]);
    }
    emit_table(
        &opts.out,
        "ablation_ack_coalescing",
        "Ablation — cumulative ACK granularity m",
        &t,
    );
}

/// Failure injection: a stuck PFC pause on the spine link (§2.3's pause
/// storm hazard). The watchdog records episode lengths; the fabric must
/// recover losslessly once the fault clears.
pub fn pause_storm(opts: &RunOpts) {
    use fncc_core::scenario::FaultSpec;

    let mut t = Table::new([
        "fault_us",
        "cc",
        "episodes",
        "max_pause_us",
        "total_pause_us",
        "upstream_pauses",
        "drops",
        "all_finished",
    ]);
    for fault_us in [0u64, 50, 200] {
        for cc in [CcKind::Fncc, CcKind::Dcqcn] {
            let line = Bandwidth::gbps(100);
            let topo = Topology::dumbbell(2, 3, line, TimeDelta::from_ns(1500));
            let flows: Vec<FlowSpec> = (0..2)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: HostId(i),
                    dst: HostId(2),
                    size: 2_000_000,
                    start: SimTime::ZERO,
                })
                .collect();
            let faults: Vec<FaultSpec> = if fault_us > 0 {
                vec![FaultSpec::StuckPort {
                    switch: 1,
                    port: 1,
                    at_us: 20,
                    duration_us: fault_us,
                }]
            } else {
                Vec::new()
            };
            let mut sim = SimBuilder::new(topo, cc)
                .fabric(|f| f.faults = faults)
                .flows(flows)
                .build();
            let done = sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(20));
            let telem = sim.telemetry();
            t.row([
                fault_us.to_string(),
                cc.name().to_string(),
                telem.counters.pause_episodes.to_string(),
                f2(telem.counters.pause_time_max.as_us_f64()),
                f2(telem.counters.pause_time_total.as_us_f64()),
                telem.counters.pfc_pause_tx.to_string(),
                telem.counters.drops.to_string(),
                done.to_string(),
            ]);
        }
    }
    emit_table(
        &opts.out,
        "ablation_pause_storm",
        "Failure injection — stuck PFC pause on the spine link (§2.3)",
        &t,
    );
}

/// Extension baselines: Timely and Swift on the Fig. 9 scenario.
pub fn extra_cc(opts: &RunOpts) {
    let mut t = Table::new(["cc", "reaction_us", "peak_queue_KB", "mean_util", "pauses"]);
    for cc in [CcKind::Fncc, CcKind::Hpcc, CcKind::Timely, CcKind::Swift] {
        let r = PacketBackend::default().run(&elephants(cc, 100, opts.micro_horizon_us()));
        t.row([
            cc.name().to_string(),
            opt_us(r.scalar("reaction_us")),
            f2(num(&r, "peak_queue_kb")),
            f3(num(&r, "mean_util")),
            num(&r, "pause_frames").to_string(),
        ]);
    }
    emit_table(
        &opts.out,
        "ablation_extra_cc",
        "Extension — delay-based baselines (Timely/Swift) on the Fig. 9 scenario",
        &t,
    );
}
