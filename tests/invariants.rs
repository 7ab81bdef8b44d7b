//! Cross-crate invariants: losslessness, conservation, determinism and
//! routing symmetry on live simulations.

use fncc::cc::CcKind as Kind;
use fncc::core::sim::SimBuilder;
use fncc::prelude::*;

fn dumbbell_sim(cc: CcKind, n: u32, size: u64) -> fncc::core::sim::Sim {
    let topo = Topology::dumbbell(n, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
    let receiver = HostId(n);
    let flows: Vec<FlowSpec> = (0..n)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: receiver,
            size,
            start: SimTime::from_us(u64::from(i) * 10),
        })
        .collect();
    SimBuilder::new(topo, cc).flows(flows).build()
}

/// With PFC on, no scheme ever drops a frame, and every flow completes.
#[test]
fn lossless_and_complete_for_all_schemes() {
    for cc in [
        Kind::Fncc,
        Kind::Hpcc,
        Kind::Dcqcn,
        Kind::Rocc,
        Kind::Timely,
        Kind::Swift,
    ] {
        let mut sim = dumbbell_sim(cc, 4, 400_000);
        let done = sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(50));
        assert!(done, "{cc:?}: flows did not finish");
        let c = &sim.telemetry().counters;
        assert_eq!(c.drops, 0, "{cc:?}: dropped frames");
        assert_eq!(c.pfc_pause_tx, c.pfc_resume_tx, "{cc:?}: unbalanced PFC");
    }
}

/// Every pause is matched by a resume even under heavy incast pressure.
#[test]
fn pfc_pause_resume_balance_under_incast() {
    let topo = Topology::star(9, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(8),
            size: 1_000_000,
            start: SimTime::ZERO,
        })
        .collect();
    let mut sim = SimBuilder::new(topo, CcKind::Dcqcn)
        .fabric(|f| f.pfc.as_mut().unwrap().threshold = 100 * 1024) // aggressive threshold
        .flows(flows)
        .build();
    let done = sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(50));
    assert!(done);
    let c = &sim.telemetry().counters;
    assert!(c.pfc_pause_tx > 0, "incast at tiny threshold must pause");
    assert_eq!(c.pfc_pause_tx, c.pfc_resume_tx);
    assert_eq!(c.drops, 0);
}

/// The byte count delivered equals the byte count sent (per sender).
#[test]
fn payload_conservation() {
    use fncc::net::fabric::HostLogic;
    let mut sim = dumbbell_sim(CcKind::Fncc, 3, 250_000);
    assert!(sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(20)));
    let telem = sim.telemetry();
    for i in 0..3u32 {
        assert_eq!(
            sim.host(HostId(i)).sent_bytes(FlowId(i)),
            250_000,
            "flow {i}: sender transmitted exactly the flow size"
        );
        let rec = telem.flow_record(FlowId(i)).unwrap();
        assert!(rec.finish.is_some());
        assert!(rec.finish.unwrap() > rec.start);
    }
}

/// Identical configurations give bit-identical outcomes.
#[test]
fn determinism_across_runs() {
    let run = || {
        let mut sim = dumbbell_sim(CcKind::Dcqcn, 4, 300_000);
        sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(20));
        let finishes: Vec<_> = sim
            .telemetry()
            .flow_records()
            .map(|r| (r.flow, r.finish))
            .collect();
        (sim.events_processed(), finishes)
    };
    assert_eq!(run(), run());
}

/// Different seeds actually change stochastic components (ECN marking).
#[test]
fn seeds_perturb_ecn_marking() {
    let run = |seed: u64| {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let flows: Vec<FlowSpec> = (0..2)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: HostId(i),
                dst: HostId(2),
                size: 3_000_000,
                start: SimTime::ZERO,
            })
            .collect();
        let mut sim = SimBuilder::new(topo, CcKind::Dcqcn)
            .fabric(|f| f.seed = seed)
            .flows(flows)
            .build();
        sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(30));
        sim.telemetry().counters.ecn_marks
    };
    let a = run(1);
    let b = run(2);
    assert!(a > 0 && b > 0);
    assert_ne!(a, b, "different seeds should mark differently");
}

/// Live ACK paths traverse the reversed data path (checked via telemetry:
/// FNCC collects exactly one INT record per data-path switch).
#[test]
fn fncc_ack_int_hop_count_matches_path_length() {
    let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
    // Host 0 (pod 0) to host 15 (pod 3): 5-switch path.
    let hops = topo.path_switches(HostId(0), HostId(15), FlowId(0)).len();
    assert_eq!(hops, 5);
    let flows = vec![FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(15),
        size: 200_000,
        start: SimTime::ZERO,
    }];
    let mut sim = SimBuilder::new(topo, CcKind::Fncc).flows(flows).build();
    assert!(sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(10)));
    let telem = sim.telemetry();
    assert_eq!(
        telem.counters.int_age_hops(),
        hops,
        "one INT record per path switch"
    );
    for h in 0..hops {
        assert!(
            telem.counters.mean_int_age(h).is_some(),
            "hop {h} never sampled"
        );
    }
}

/// Cumulative ACKs (§3.2.3) preserve completion and losslessness.
#[test]
fn cumulative_acks_preserve_semantics() {
    for m in [1u32, 4, 16] {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let flows = vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size: 1_456_000,
            start: SimTime::ZERO,
        }];
        let mut sim = SimBuilder::new(topo, CcKind::Fncc)
            .ack_every(m)
            .flows(flows)
            .build();
        assert!(
            sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(10)),
            "m={m}"
        );
        assert_eq!(sim.telemetry().counters.drops, 0);
        // One ACK per m frames, plus the forced ACK on the last frame when
        // the flow length is not a multiple of m.
        assert_eq!(
            sim.telemetry().counters.acks_delivered,
            1000u64.div_ceil(m as u64)
        );
    }
}

/// Spanning-tree routing (Fig. 6) also completes workloads losslessly, on
/// a fat-tree and a leaf–spine.
#[test]
fn spanning_tree_routing_end_to_end() {
    let line = Bandwidth::gbps(100);
    let prop = TimeDelta::from_ns(1500);
    let topos = vec![
        Topology::fat_tree(4, line, prop).with_spanning_trees(4),
        Topology::leaf_spine(4, 2, 2, line, prop).with_spanning_trees(3),
    ];
    for topo in topos {
        let n = topo.n_hosts;
        let flows: Vec<FlowSpec> = (0..8.min(n / 2))
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: HostId(i),
                dst: HostId(n - 1 - i),
                size: 150_000,
                start: SimTime::from_us(u64::from(i)),
            })
            .collect();
        let mut sim = SimBuilder::new(topo, CcKind::Fncc).flows(flows).build();
        assert!(sim.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(20)));
        assert_eq!(sim.telemetry().counters.drops, 0);
    }
}
