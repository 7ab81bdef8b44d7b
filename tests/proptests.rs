//! Property-based tests over the core data structures and invariants.

use fncc::des::engine::{Engine, Model, Scheduler};
use fncc::des::rng::DetRng;
use fncc::des::stats::{jain_index, Samples};
use fncc::des::{SimTime, TimeDelta};
use fncc::net::ids::{FlowId, HostId};
use fncc::net::topology::Topology;
use fncc::net::units::Bandwidth;
use fncc::workloads::cdf::Cdf;
use proptest::prelude::*;

/// The engine dispatches any multiset of events in nondecreasing time
/// order, with FIFO tie-breaking.
#[derive(Default)]
struct Recorder {
    seen: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
        self.seen.push((now.as_ps(), ev));
    }
}

proptest! {
    #[test]
    fn engine_orders_any_event_multiset(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut eng = Engine::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime::from_ps(t), i as u32);
        }
        eng.run_until_idle();
        let seen = &eng.model.seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Fat-tree ECMP paths are symmetric for every (pair, flow) — the
    /// precondition of FNCC's return-path INT (Observation 2).
    #[test]
    fn fat_tree_paths_always_symmetric(
        src in 0u32..16,
        dst in 0u32..16,
        flow in 0u32..10_000,
    ) {
        prop_assume!(src != dst);
        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let fwd = topo.path_switches(HostId(src), HostId(dst), FlowId(flow));
        let mut rev = topo.path_switches(HostId(dst), HostId(src), FlowId(flow));
        rev.reverse();
        prop_assert_eq!(fwd, rev);
    }

    /// Spanning-tree routing is symmetric too (Fig. 6 mechanism).
    #[test]
    fn spanning_tree_paths_always_symmetric(
        src in 0u32..16,
        dst in 0u32..16,
        flow in 0u32..10_000,
        n_trees in 1usize..6,
    ) {
        prop_assume!(src != dst);
        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
            .with_spanning_trees(n_trees);
        let fwd = topo.path_switches(HostId(src), HostId(dst), FlowId(flow));
        let mut rev = topo.path_switches(HostId(dst), HostId(src), FlowId(flow));
        rev.reverse();
        prop_assert_eq!(fwd, rev);
    }

    /// Ideal FCT is monotone in flow size and bounded below by the
    /// propagation+pipeline floor.
    #[test]
    fn ideal_fct_monotone(size_a in 1u64..50_000_000, size_b in 1u64..50_000_000) {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let path: Vec<_> = topo.path_hops(HostId(0), HostId(2), FlowId(0)).collect();
        let fct = |s| topo.ideal_fct_on(&path, s, 1456, 62);
        let (lo, hi) = if size_a <= size_b { (size_a, size_b) } else { (size_b, size_a) };
        prop_assert!(fct(lo) <= fct(hi));
        // Floor: 4 links × 1.5 µs propagation.
        prop_assert!(fct(lo) >= TimeDelta::from_us(6));
    }

    /// CDF sampling respects the support and quantiles are monotone.
    #[test]
    fn cdf_quantiles_monotone(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let cdf = fncc::workloads::distributions::web_search();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        prop_assert!(cdf.quantile(hi) <= cdf.max_size());
        prop_assert!(cdf.quantile(lo) >= 1);
    }

    /// Custom CDFs: the sample mean tracks the analytic mean.
    #[test]
    fn cdf_sample_mean_tracks_analytic(seed in 0u64..1000) {
        let cdf = Cdf::new(&[(100.0, 0.3), (10_000.0, 0.9), (100_000.0, 1.0)]);
        let mut rng = DetRng::new(seed, 0);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| cdf.sample(&mut rng)).sum();
        let sample_mean = sum as f64 / n as f64;
        let analytic = cdf.mean();
        prop_assert!(
            (sample_mean - analytic).abs() / analytic < 0.15,
            "sample {} vs analytic {}", sample_mean, analytic
        );
    }

    /// Jain's index is always in (0, 1] and equals 1 only for equal rates.
    #[test]
    fn jain_index_bounds(xs in proptest::collection::vec(0.01f64..1000.0, 1..32)) {
        let j = jain_index(&xs);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12);
        let equal = vec![xs[0]; xs.len()];
        prop_assert!((jain_index(&equal) - 1.0).abs() < 1e-9);
    }

    /// Nearest-rank percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Samples::new();
        for &x in &xs {
            s.push(x);
        }
        let p50 = s.percentile(50.0);
        let p95 = s.percentile(95.0);
        let p99 = s.percentile(99.0);
        prop_assert!(p50 <= p95 && p95 <= p99);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(p99 <= max && p50 >= min);
    }

    /// Bandwidth serialization arithmetic: tx_time is additive in bytes.
    #[test]
    fn tx_time_additive(a in 1u64..100_000, b in 1u64..100_000, gbps in 1u64..800) {
        let bw = Bandwidth::gbps(gbps);
        let sum = bw.tx_time(a + b);
        let parts = bw.tx_time(a) + bw.tx_time(b);
        // Rounding up per call may add at most 1 ps per part.
        prop_assert!(parts >= sum);
        prop_assert!(parts.as_ps() - sum.as_ps() <= 2);
    }

    /// `Port::tx_time` is `Bandwidth::tx_time` at the drain rate on both of
    /// its paths — the whole-ps-per-byte multiply (every shipped line rate)
    /// and the memoized division (a degraded link's odd rate) — for sizes
    /// that alternate, and across `set_drain_bw` in both directions.
    #[test]
    fn port_tx_time_matches_bandwidth(
        line in 0usize..6,
        odd_bps in 1_000_000_000u64..400_000_000_000,
        sizes in proptest::collection::vec(1u64..20_000, 1..40),
    ) {
        use fncc::net::ids::NodeRef;
        use fncc::net::port::Port;
        use fncc::net::topology::PortSpec;
        let bw = Bandwidth::gbps([10, 25, 40, 100, 200, 400][line]);
        let mut port = Port::from_spec(&PortSpec {
            peer: NodeRef::Host(HostId(0)),
            peer_port: 0,
            bw,
            prop: TimeDelta::from_ns(1500),
        });
        // Line rate, a rate that (almost surely) does not divide 8·10¹²,
        // a clean fraction of the line, and back.
        for rate in [bw, Bandwidth::bps(odd_bps), Bandwidth::bps(bw.as_bps() / 2), bw] {
            port.set_drain_bw(rate);
            let drain = port.drain_bw();
            for &b in &sizes {
                prop_assert_eq!(port.tx_time(b), drain.tx_time(b));
                prop_assert_eq!(port.tx_time(b + 8), drain.tx_time(b + 8));
                prop_assert_eq!(port.tx_time(b), drain.tx_time(b));
            }
        }
    }

    /// Timing-wheel vs binary-heap dispatch equivalence: over random
    /// schedules spanning every wheel level and the overflow heap — with
    /// dynamically scheduled follow-ups, pushes into the slot being
    /// drained, and a run parked at horizons where cross-shard events are
    /// injected and local ones scheduled around the wheel's peeked cursor —
    /// both event queues dispatch the identical (time, tag) sequence. This
    /// pins the wheel's `(time, prio, seq)` order to the reference oracle.
    #[test]
    fn timing_wheel_matches_heap_dispatch_order(
        // Times up to ~1 500 s in ps: ten of the wheel's 141 s top
        // windows, so events overflow and migrate across several of them.
        times in proptest::collection::vec(0u64..1_500_000_000_000_000, 1..250),
        chain_delays in proptest::collection::vec(1u64..10_000_000_000, 0..8),
        // Follow-ups inside one level-0 slot (2^11 ps) of the event that
        // schedules them.
        sub_slot in proptest::collection::vec(0u64..2_048, 0..8),
        // Parks: (horizon step, delay of the injected event past the parked
        // clock, how far back its source shard scheduled it), all in ps.
        parks in proptest::collection::vec(
            (1u64..300_000_000_000_000, 0u64..3_000_000, 0u64..5_000_000),
            0..6,
        ),
    ) {
        struct Chainer {
            seen: Vec<(u64, u32)>,
            delays: Vec<u64>,
            sub_slot: Vec<u64>,
        }
        impl Model for Chainer {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
                self.seen.push((now.as_ps(), ev));
                // Tag-derived follow-ups keep both runs' schedules identical.
                if let Some(&d) = self.delays.get(ev as usize) {
                    s.after(TimeDelta::from_ps(d), ev + 1000);
                    s.immediate(ev + 2000);
                }
                if let Some(&d) = self.sub_slot.get(ev as usize) {
                    s.after(TimeDelta::from_ps(d), ev + 3000);
                }
            }
        }
        let run = |kind: fncc::des::engine::QueueKind| {
            let mut eng = Engine::with_queue(
                Chainer {
                    seen: Vec::new(),
                    delays: chain_delays.clone(),
                    sub_slot: sub_slot.clone(),
                },
                kind,
            );
            // Local schedules sit in domain 1, so that injected sequences
            // from domains 0 and 2 sort on either side of them.
            eng.set_domain(1);
            for (i, &t) in times.iter().enumerate() {
                eng.schedule(SimTime::from_ps(t), i as u32);
            }
            let mut horizon = 0u64;
            for (n, &(step, delay, back)) in parks.iter().enumerate() {
                horizon += step;
                eng.run_until(SimTime::from_ps(horizon));
                // The peek that ended `run_until` moved the wheel's cursor
                // to the next local event: `now + delay` lies behind it when
                // that event is further out, ahead of it otherwise.
                let now = eng.now();
                let prio = SimTime::from_ps(now.as_ps().saturating_sub(back));
                let seq = ((n as u64 % 2 * 2) << fncc::des::engine::SEQ_SHARD_SHIFT) | n as u64;
                eng.inject(now + TimeDelta::from_ps(delay), prio, seq, 5000 + n as u32);
                eng.schedule(now + TimeDelta::from_ps(delay / 2), 6000 + n as u32);
            }
            eng.run_until_idle();
            eng.model.seen
        };
        let wheel = run(fncc::des::engine::QueueKind::Wheel);
        let heap = run(fncc::des::engine::QueueKind::Heap);
        prop_assert_eq!(wheel, heap);
    }
}

proptest! {
    /// The RTO schedule is monotone in the backoff counter and clamped to
    /// the configured ceiling — the pure half of the go-back-N invariants.
    #[test]
    fn rto_backoff_monotone_and_capped(k in 0u32..24) {
        let rec = fncc::transport::RecoveryConfig::paper_default();
        prop_assert!(rec.rto(k) >= rec.rto(0));
        prop_assert!(rec.rto(k + 1) >= rec.rto(k));
        // High backoffs saturate: the cap is reached and held.
        prop_assert_eq!(rec.rto(24), rec.rto(23));
    }
}

proptest! {
    /// Go-back-N under arbitrary seeded drop patterns (random per-frame
    /// loss, optionally compounded by a link flap that drops the back half
    /// of the first window in flight and reorders delivery around the
    /// outage): the flow must finish — the cumulative-ACK receiver accepts
    /// every byte exactly once in order, so `all_flows_finished` certifies
    /// exactly-once delivery — and back-to-back RTO expiries with no ACK
    /// progress must never shrink the timeout (exponential backoff is
    /// monotone within a loss episode).
    #[test]
    fn go_back_n_survives_seeded_loss_with_monotone_backoff(
        seed in 0u64..10_000,
        prob in 0.0001f64..0.08,
        size in 50_000u64..400_000,
        flap in (0u64..2).prop_map(|b| b == 1),
    ) {
        use fncc::cc::{CcAlgo, HpccConfig};
        use fncc::core::obs::{TraceEvent, TraceSink};
        use fncc::net::config::FabricConfig;
        use fncc::net::fabric::{Ev, Fabric};
        use fncc::net::fault::FaultSpec;
        use fncc::transport::{
            apply_cc_features, DcHost, FlowSpec, HostTimer, RecoveryConfig, TransportConfig,
        };

        let bw = Bandwidth::gbps(100);
        let topo = Topology::dumbbell(2, 3, bw, TimeDelta::from_ns(1500));
        let hpcc = HpccConfig::paper_default(bw, TimeDelta::from_us(13));
        let tcfg = TransportConfig::new(CcAlgo::Hpcc(hpcc.clone()))
            .with_recovery(RecoveryConfig::paper_default());
        let mut cfg = FabricConfig::paper_default();
        apply_cc_features(&mut cfg, tcfg.algo.kind(), bw);
        cfg.seed = seed;
        let (switch, port) = (0, 2);
        cfg.faults.push(FaultSpec::RandomLoss {
            switch,
            port,
            from_us: 0,
            to_us: 50_000,
            probability: prob,
        });
        if flap {
            // The sender emits its first window (the BDP, or the whole flow)
            // back to back at line rate from t = 0. The link fails halfway
            // through that window, so every later frame of it reaches the
            // dead port and is dropped, whatever the flow's size.
            let first_window = (size as f64).min(hpcc.bdp());
            let at_us = (first_window * 8.0 / bw.as_f64() * 1e6 / 2.0) as u64;
            cfg.faults.push(FaultSpec::LinkDown { switch, port, at_us });
            cfg.faults.push(FaultSpec::LinkUp { switch, port, at_us: 200 });
        }
        let hosts: Vec<DcHost> = (0..topo.n_hosts).map(|_| DcHost::new(tcfg.clone())).collect();
        let mut fabric = Fabric::new(&topo, cfg, hosts);
        fabric.telemetry.rec.trace = TraceSink::with_capacity(1 << 16);
        let spec = FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size,
            start: SimTime::ZERO,
        };
        fabric.telemetry.register_flows([spec.record()]);
        fabric.hosts[0].add_flow(spec.clone());
        let mut eng = fncc::des::engine::Engine::new(fabric);
        for (t, ev) in eng.model.startup_events() {
            eng.schedule(t, ev);
        }
        eng.schedule(
            spec.start,
            Ev::HostTimer { host: spec.src, timer: HostTimer::FlowStart(spec.id) },
        );
        eng.run_until(SimTime::from_ms(50));

        let t = &eng.model.telemetry;
        prop_assert!(
            t.all_flows_finished(),
            "flow stuck (seed {seed}, prob {prob:.3}, flap {flap}): \
             {} fault drops, {} retx, {} rtos",
            t.counters.fault_drops, t.counters.retx, t.counters.rtos
        );
        if flap {
            prop_assert!(t.counters.fault_drops > 0, "flap dropped nothing in flight");
        }
        // Backoff discipline: every genuine expiry logs the *next* timeout.
        // With no ACK progress the chain doubles (r2 >= r1); ACK progress
        // resets the counter to zero, so the only legal *shrink* between
        // consecutive expiries is a collapse to the bottom of the schedule,
        // rto(1) — the timeout an expiry logs right after a reset. (The
        // exact-gap heuristic alone is unsound: a timer armed before the
        // reset can genuinely expire at the old `t1 + r1` instant.) Every
        // logged value must also come from the configured schedule.
        let rec = RecoveryConfig::paper_default();
        let schedule: Vec<u64> = (1..=25).map(|k| rec.rto(k).as_ps()).collect();
        let rtos: Vec<(u64, u64)> = t
            .rec
            .trace
            .events()
            .filter_map(|e| match *e {
                TraceEvent::Rto { t_ps, rto_ps, .. } => Some((t_ps, rto_ps)),
                _ => None,
            })
            .collect();
        for &(_, r) in &rtos {
            prop_assert!(schedule.contains(&r), "rto {r} ps not on the schedule");
        }
        for w in rtos.windows(2) {
            let ((t1, r1), (t2, r2)) = (w[0], w[1]);
            if t2 - t1 == r1 {
                prop_assert!(
                    r2 >= r1 || r2 == rec.rto(1).as_ps(),
                    "backoff shrank to a mid-schedule value within a loss \
                     episode: {r1} -> {r2} ps"
                );
            }
        }
    }
}

proptest! {
    /// Causality safety of the sharded DES over *arbitrary* partitions:
    /// whatever owner map the conservative epochs run over — not just the
    /// pod partition shipped in `PartitionMap::for_topology` — no
    /// cross-shard frame may arrive below its receiver's clock, and the
    /// observable results must equal the single-engine run. (The pod
    /// partition maximizes lookahead; correctness must not depend on it.)
    #[test]
    fn arbitrary_partitions_are_causally_safe_and_equivalent(
        n_shards in 2u16..5,
        host_owner_raw in proptest::collection::vec(0u16..8, 16..17),
        switch_owner_raw in proptest::collection::vec(0u16..8, 20..21),
        threads in 1usize..5,
    ) {
        use fncc::core::{ShardedSim, SimBuilder};
        use fncc::net::partition::PartitionMap;
        use fncc::transport::FlowSpec;
        use std::sync::Arc;

        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let host_owner: Vec<u16> = host_owner_raw.iter().map(|&o| o % n_shards).collect();
        let switch_owner: Vec<u16> = switch_owner_raw.iter().map(|&o| o % n_shards).collect();
        let map = Arc::new(PartitionMap::from_owners(
            &topo, n_shards, host_owner, switch_owner,
        ));
        // A degenerate draw can put every node in one shard (no cut, zero
        // lookahead): that is the fallback path, tested elsewhere.
        prop_assume!(map.is_sharded() && map.cut_links > 0);

        // Cross-pod incast plus one intra-pod flow, staggered starts.
        let flows: Vec<FlowSpec> = [4u32, 8, 12, 1]
            .into_iter()
            .enumerate()
            .map(|(i, src)| FlowSpec {
                id: FlowId(i as u32),
                src: HostId(src),
                dst: HostId(0),
                size: 60_000,
                start: SimTime::from_us(i as u64),
            })
            .collect();
        let builder = SimBuilder::new(topo.clone(), fncc::cc::CcKind::Fncc).flows(flows.clone());

        let mut legacy = builder.clone().build();
        prop_assert!(legacy.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50)));

        let mut sharded = ShardedSim::with_map(builder, map, threads);
        prop_assert!(sharded.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50)));
        let stats = sharded.stats();
        prop_assert_eq!(stats.causality_violations, 0, "frame below the epoch horizon");
        prop_assert_eq!(sharded.events_processed(), legacy.events_processed());
        sharded.harvest();
        let (lt, st) = (legacy.telemetry(), sharded.telemetry());
        prop_assert_eq!(lt.counters.data_delivered, st.counters.data_delivered);
        prop_assert_eq!(lt.counters.acks_delivered, st.counters.acks_delivered);
        prop_assert_eq!(lt.counters.ecn_marks, st.counters.ecn_marks);
        for f in &flows {
            let a = lt.flow_record(f.id).unwrap();
            let b = st.flow_record(f.id).unwrap();
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.finish, b.finish);
        }
    }

    /// Which worker runs which shard — and in what order the workers are
    /// started — must not change any result: the schedule is fixed by the
    /// partition, threads are pure transport.
    #[test]
    fn worker_assignment_does_not_change_results(
        threads in 2usize..5,
        assign_raw in proptest::collection::vec(0usize..8, 4..5),
    ) {
        use fncc::core::{ShardedSim, SimBuilder};
        use fncc::transport::FlowSpec;

        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let flows: Vec<FlowSpec> = [4u32, 8, 12, 1]
            .into_iter()
            .enumerate()
            .map(|(i, src)| FlowSpec {
                id: FlowId(i as u32),
                src: HostId(src),
                dst: HostId(0),
                size: 60_000,
                start: SimTime::from_us(i as u64),
            })
            .collect();
        let run = |threads: usize, assign: Option<Vec<usize>>| {
            let builder =
                SimBuilder::new(topo.clone(), fncc::cc::CcKind::Fncc).flows(flows.clone());
            let mut sim = ShardedSim::new(builder, threads);
            if let Some(a) = assign {
                sim.set_worker_assignment(a);
            }
            assert!(sim.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50)));
            let events = sim.events_processed();
            sim.harvest();
            let t = sim.telemetry();
            let records: Vec<_> = flows
                .iter()
                .map(|f| {
                    let r = t.flow_record(f.id).unwrap();
                    (r.start, r.finish)
                })
                .collect();
            (events, t.counters.data_delivered, t.counters.ecn_marks, records)
        };

        let baseline = run(1, None);
        let assign: Vec<usize> = assign_raw.iter().map(|&w| w % threads).collect();
        let shuffled = run(threads, Some(assign));
        prop_assert_eq!(baseline, shuffled);
    }
}

proptest! {
    /// The fluid allocator's warm-started incremental path is pinned to
    /// the from-scratch `allocate` oracle over random arrival/departure
    /// sequences: every alive flow's rate matches within 1e-9 relative
    /// after every rebalance, and the incremental solution is feasible
    /// and Pareto-optimal in its own right. (The fncc-fluid unit suite
    /// carries a deeper deterministic version; this one fuzzes shapes.)
    #[test]
    fn incremental_waterfill_matches_oracle(
        caps in proptest::collection::vec(1.0f64..200.0, 4..24),
        script in proptest::collection::vec((0u8..5, proptest::collection::vec(0u16..24, 1..5)), 1..60),
    ) {
        use fncc_fluid::{water_fill, worst_oversubscription, find_non_pareto_flow, Demand, WaterFiller};
        let nl = caps.len();
        let mut wf = WaterFiller::new(nl);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        for (op, raw_path) in script {
            if op < 2 && !alive.is_empty() {
                // 40% removals, index derived from the path payload.
                let ix = raw_path[0] as usize % alive.len();
                let (slot, _) = alive.swap_remove(ix);
                wf.remove_flow(slot);
            } else {
                let mut p: Vec<u32> = raw_path.iter().map(|&l| l as u32 % nl as u32).collect();
                p.sort_unstable();
                p.dedup();
                let slot = wf.add_flow(&p);
                alive.push((slot, p));
            }
            wf.rebalance();
            let demands: Vec<Demand<'_>> = alive
                .iter()
                .map(|(_, p)| Demand { cap: f64::INFINITY, path: p })
                .collect();
            let oracle = water_fill(&caps, &demands);
            for ((slot, _), &want) in alive.iter().zip(&oracle) {
                let got = wf.rate(*slot);
                let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
                prop_assert!(rel <= 1e-9, "slot {} rate {} vs oracle {} (rel {:e})", slot, got, want, rel);
            }
            let rates: Vec<f64> = alive.iter().map(|(s, _)| wf.rate(*s)).collect();
            prop_assert!(worst_oversubscription(&caps, &demands, &rates) < 1e-6);
            prop_assert_eq!(find_non_pareto_flow(&caps, &demands, &rates, 1e-6), None);
        }
    }
}
