//! Property test: there is one fluid engine, and how it is driven must not
//! change its answer. `FluidSim::run` (deferred resolves, no exit settle),
//! `advance_to` in ragged chunks (a settle at every chunk edge) and
//! `next_event`-by-`next_event` stepping (a settle at every event) must
//! give every flow the same finish time to the picosecond the records are
//! kept in, and agree on which flows were rerouted or never finished —
//! on Poisson and incast traffic, with and without faults of all five
//! kinds. After every step each live flow's cached completion projection
//! must also equal the from-scratch expression bit for bit.

use fncc_cc::CcKind;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::{BackgroundFluid, FluidResult, FluidSim, Framing, RateModel};
use fncc_net::fault::FaultSpec;
use fncc_net::ids::{FlowId, HostId};
use fncc_net::topology::Topology;
use fncc_net::units::Bandwidth;
use fncc_transport::FlowSpec;
use fncc_workloads::patterns::incast_storm;
use fncc_workloads::{poisson_flows, web_search, PoissonConfig};
use proptest::prelude::*;

const BW: Bandwidth = Bandwidth::gbps(100);
const PROP: TimeDelta = TimeDelta::from_ns(1500);

/// `(flow, finish in ps)` sorted by flow id, plus the rerouted-flow count.
fn outcome(r: &FluidResult) -> (Vec<(FlowId, Option<u64>)>, u64) {
    let v: Vec<_> = r
        .records()
        .map(|rec| (rec.flow, rec.finish.map(|t| t.as_ps())))
        .collect();
    (v, r.rerouted_flows)
}

fn assert_same(want: &FluidResult, got: &FluidResult, how: &str) {
    let ((want, want_rerouted), (got, got_rerouted)) = (outcome(want), outcome(got));
    assert_eq!(want_rerouted, got_rerouted, "{how}: rerouted flows");
    assert_eq!(want.len(), got.len(), "{how}: flow count");
    for (&(flow, a), &(_, b)) in want.iter().zip(&got) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) if a.abs_diff(b) <= 1 => {}
            _ => panic!("{how}: {flow:?} finished at {a:?} ps under run(), {b:?} ps stepped"),
        }
    }
}

proptest! {
    #[test]
    fn run_chunks_and_event_stepping_agree(
        fat_tree in 0u32..2,
        incast in 0u32..2,
        n_flows in 2u32..40,
        seed in 0u64..1_000_000,
        faults_raw in proptest::collection::vec(
            (0u32..6, 0u32..64, 0u32..8, 0u64..400, 0.1f64..0.9),
            0..4,
        ),
        chunks_ns in proptest::collection::vec(200u64..60_000, 1..12),
    ) {
        let topo = if fat_tree == 1 {
            Topology::fat_tree(4, BW, PROP)
        } else {
            Topology::dumbbell(4, 3, BW, PROP)
        };
        let flows: Vec<FlowSpec> = if incast == 1 {
            let receiver = HostId(seed as u32 % topo.n_hosts);
            let fan_in = 1 + n_flows % (topo.n_hosts - 1);
            let size = 20_000 + seed % 2_000_000;
            incast_storm(topo.n_hosts, receiver, fan_in, size, 3, TimeDelta::from_us(40))
        } else {
            let cfg = PoissonConfig {
                n_hosts: topo.n_hosts,
                line: BW,
                load: 0.6,
                n_flows,
                first_id: 0,
                start: SimTime::ZERO,
                seed,
            };
            poisson_flows(&cfg, &web_search())
        };
        // kind 0: a flap (down, up later); 1: a permanent down; 2–4: a
        // degrade, loss or stuck-port window; 5: a degrade and a loss
        // window that overlap on one port.
        let mut faults = Vec::new();
        for &(kind, sw, port, at_us, factor) in &faults_raw {
            let switch = sw % topo.switches.len() as u32;
            let port = (port as usize % topo.switches[switch as usize].ports.len()) as u8;
            let degrade = |from_us: u64| FaultSpec::LinkDegrade {
                switch,
                port,
                from_us,
                to_us: from_us + 150,
                rate_factor: factor,
                delay_factor: 1.0,
            };
            let loss = |from_us: u64| FaultSpec::RandomLoss {
                switch,
                port,
                from_us,
                to_us: from_us + 150,
                probability: 1.0 - factor,
            };
            match kind {
                0 | 1 => {
                    faults.push(FaultSpec::LinkDown { switch, port, at_us });
                    if kind == 0 {
                        let at_us = at_us + 150;
                        faults.push(FaultSpec::LinkUp { switch, port, at_us });
                    }
                }
                2 => faults.push(degrade(at_us)),
                3 => faults.push(loss(at_us)),
                4 => faults.push(FaultSpec::StuckPort {
                    switch,
                    port,
                    at_us,
                    duration_us: 150,
                }),
                _ => faults.extend([degrade(at_us), loss(at_us + 60)]),
            }
        }
        let model = RateModel::paper_default(CcKind::Fncc);
        let engine = || {
            let mut bg =
                BackgroundFluid::new(topo.clone(), model, Framing::default(), flows.clone(), false)
                    .unwrap();
            bg.faults(&faults);
            bg
        };

        let reference = FluidSim::new(topo.clone(), model)
            .flows(flows.clone())
            .faults(&faults)
            .run()
            .unwrap();

        // Ragged chunks, until nothing can still happen: past every flow
        // the reference finished and every scheduled fault.
        let mut chunked = engine();
        let t_end = reference.horizon.as_secs_f64().max(600e-6) + 1e-3;
        let mut t = 0.0;
        for &chunk in chunks_ns.iter().cycle() {
            if t >= t_end {
                break;
            }
            t += chunk as f64 * 1e-9;
            chunked.advance_to(t).unwrap();
            prop_assert!(chunked.projections_are_exact(), "stale projection at {t} s");
        }
        assert_same(&reference, &chunked.into_result(), "ragged chunks");

        let mut stepped = engine();
        while let Some(t) = stepped.next_event() {
            stepped.advance_to(t).unwrap();
            prop_assert!(stepped.projections_are_exact(), "stale projection at {t} s");
        }
        assert_same(&reference, &stepped.into_result(), "event stepping");
    }
}
