//! Layer micro-drivers: each calls one layer's public functions in a loop
//! on inputs shaped like the benchmark workloads and reports the fastest of
//! seven batches as nanoseconds per operation.
//!
//! They run only in the traced invocation, from outside the program: no
//! driver needs a hook inside a crate. The shapes follow the criterion
//! benches (`crates/bench/benches/engine.rs`, `des_scale.rs`,
//! `fluid_scale.rs`), which can call these once that crate may be edited.

use crate::clock::time_short;
use crate::stats;
use crate::trace::Tracer;
use fncc_cc::{AckView, CcKind};
use fncc_core::obs::metrics::Histogram;
use fncc_core::obs::{TraceEvent, TraceSink};
use fncc_core::{make_algo, SimBuilder};
use fncc_des::engine::{Engine, Model, QueueKind, Scheduler};
use fncc_des::{SimTime, TimeDelta};
use fncc_fluid::{BackgroundFluid, Demand, Framing, LinkMap, RateModel, WaterFiller};
use fncc_net::config::{FabricConfig, IntInsertion};
use fncc_net::ids::{FlowId, HostId, SwitchId};
use fncc_net::packet::IntRecord;
use fncc_net::partition::PartitionMap;
use fncc_net::pool::PacketPool;
use fncc_net::switch::{egress_for, Switch, SwitchOutput};
use fncc_net::telemetry::Telemetry;
use fncc_net::topology::Topology;
use fncc_net::units::Bandwidth;
use fncc_transport::FlowSpec;
use fncc_workloads::arrivals::{poisson_flows, PoissonConfig};
use std::hint::black_box;

/// Batches per driver; the fastest one is reported.
const BATCHES: usize = 7;

/// The paper's fabric: k=8 fat-tree, 100 Gb/s, 1.5 µs propagation.
pub fn fat_tree_k8() -> Topology {
    Topology::fat_tree(8, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
}

/// Time `f` once, in seconds at the nominal clock.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, timed) = time_short(f);
    (out, timed.nominal_s)
}

/// Self-rescheduling no-op model: pure scheduler churn.
pub struct Churn {
    /// Events still to reschedule.
    pub remaining: u64,
}

impl Model for Churn {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            s.after(TimeDelta::from_ns(10), ev);
        }
    }
}

/// A deterministic churn trace on a fabric's link set: `STANDING` random
/// host pairs, then per event one flow leaves and one arrives.
struct ChurnTrace {
    caps: Vec<f64>,
    paths: Vec<Vec<u32>>,
    removals: Vec<usize>,
}

/// Active flows in the water-filler drivers (the fluid workload peaks at
/// ~440 active flows).
const STANDING: usize = 450;

fn churn_trace(topo: &Topology, events: usize) -> ChurnTrace {
    let lm = LinkMap::new(topo);
    let caps = lm.capacities().iter().map(|&c| c * 0.95).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let hosts = topo.n_hosts as u64;
    let paths = (0..STANDING + events)
        .map(|i| {
            let src = (next() % hosts) as u32;
            let mut dst = (next() % (hosts - 1)) as u32;
            if dst >= src {
                dst += 1;
            }
            lm.path_links(topo, HostId(src), HostId(dst), FlowId(i as u32))
        })
        .collect();
    let removals = (0..events)
        .map(|_| (next() % STANDING as u64) as usize)
        .collect();
    ChurnTrace {
        caps,
        paths,
        removals,
    }
}

/// A `BackgroundFluid` over `n_flows` WebSearch flows on `topo`.
fn background(topo: &Topology, n_flows: u32) -> BackgroundFluid {
    let flows = poisson_flows(
        &PoissonConfig {
            n_hosts: topo.n_hosts,
            line: Bandwidth::gbps(100),
            load: 0.55,
            n_flows,
            first_id: 0,
            start: SimTime::ZERO,
            seed: 1,
        },
        &fncc_workloads::distributions::web_search(),
    );
    BackgroundFluid::new(
        topo.clone(),
        RateModel::paper_default(CcKind::Fncc),
        Framing::default(),
        flows,
        false,
    )
    .expect("fat-tree has no zero-capacity link")
}

fn enqueue(i: u64) -> TraceEvent {
    TraceEvent::Enqueue {
        t_ps: i * 1_000,
        sw: (i % 80) as u32,
        port: (i % 8) as u8,
        flow: (i % 500) as u32,
        size: 1518,
        queue_bytes: i % 100_000,
    }
}

/// The micro-drivers' shared context: where their spans go and how far to
/// shrink the per-batch operation counts.
pub struct Drivers<'t> {
    /// Records one `micro.<name>` span per batch.
    pub tracer: &'t mut Tracer,
    /// Divisor on every per-batch operation count: 1 is the benchmark's
    /// size, the `cargo test` smoke run shrinks.
    pub shrink: u64,
}

impl Drivers<'_> {
    /// `full` operations per batch at the benchmark's size.
    fn ops(&self, full: u64) -> u64 {
        (full / self.shrink).max(1)
    }

    /// Run `batch` [`BATCHES`] times, each inside a `micro.<name>` span, and
    /// return the fastest batch's nanoseconds per operation. `batch`
    /// returns the seconds it measured (so it can leave its own set-up out)
    /// and the operations it made.
    fn fastest_ns(&mut self, name: &str, mut batch: impl FnMut() -> (f64, u64)) -> f64 {
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let ((secs, ops), _) = self.tracer.span(&format!("micro.{name}"), |_| batch());
                secs * 1e9 / ops as f64
            })
            .collect();
        stats::min(&per_op)
    }

    /// `des.{wheel,heap}_churn_ns`: 16 self-rescheduling chains over a
    /// standing backlog of `backlog` far-future events (the workload's
    /// observed `peak_queue_len`); ns per event popped and rescheduled.
    pub fn queue_churn_ns(&mut self, name: &str, kind: QueueKind, backlog: u64) -> f64 {
        let n = self.ops(100_000);
        self.fastest_ns(name, || {
            let mut eng = Engine::with_queue(Churn { remaining: n }, kind);
            for i in 0..backlog {
                eng.schedule(SimTime::from_ms(10 + i), 0);
            }
            for i in 0..16 {
                eng.schedule(SimTime::from_ns(i), i as u32);
            }
            let (_, secs) = timed(|| eng.run_until(SimTime::from_ms(9)));
            (secs, black_box(eng.events_processed()))
        })
    }

    /// `net.switch_forward{,_int}_ns`: one data frame through a standalone
    /// switch — `on_arrive` → `maybe_start_tx` → `on_tx_done` — with INT
    /// insertion off or on.
    pub fn switch_forward_ns(&mut self, name: &str, int: bool) -> f64 {
        let n = self.ops(20_000);
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_us(1));
        let mut cfg = FabricConfig::paper_default();
        if int {
            cfg.int = IntInsertion::OnData;
        }
        self.fastest_ns(name, || {
            let mut sw = Switch::new(SwitchId(0), &topo.switches[0], &cfg);
            let mut telem = Telemetry::new();
            let mut pool = PacketPool::new();
            let mut out = Vec::new();
            let recycle = |out: &mut Vec<SwitchOutput>, pool: &mut PacketPool| {
                for o in out.drain(..) {
                    if let SwitchOutput::Deliver { pkt, .. } = o {
                        pool.put(pkt);
                    }
                }
            };
            let ((), secs) = timed(|| {
                for i in 0..n {
                    let now = SimTime::from_ns(i * 130);
                    let pkt = pool.data(FlowId(0), HostId(0), HostId(2), i * 1456, 1456, 1518, now);
                    sw.on_arrive(now, 0, pkt, &cfg, &mut telem, &mut pool, &mut out);
                    recycle(&mut out, &mut pool);
                    if !sw.ports[2].idle() {
                        sw.on_tx_done(now, 2, &cfg, &mut telem, &mut pool, &mut out);
                        recycle(&mut out, &mut pool);
                    }
                }
            });
            black_box(sw.ports[2].tx_bytes);
            (secs, n)
        })
    }

    /// `net.pool_cycle_ns`: `PacketPool::data` + `put` on a warm pool.
    pub fn pool_cycle_ns(&mut self, name: &str) -> f64 {
        let n = self.ops(200_000);
        let mut pool = PacketPool::new();
        self.fastest_ns(name, || {
            let ((), secs) = timed(|| {
                for i in 0..n {
                    let now = SimTime::from_ns(i);
                    let pkt = pool.data(FlowId(i as u32), HostId(0), HostId(1), i, 1456, 1518, now);
                    pool.put(black_box(pkt));
                }
            });
            (secs, n)
        })
    }

    /// `net.route_lookup_ns`: `egress_for` on an edge switch of `topo` over
    /// all destinations and a spread of flow ids (ECMP up- and down-paths).
    pub fn route_lookup_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        let n = self.ops(200_000);
        let cfg = FabricConfig::paper_default();
        let sw = Switch::new(SwitchId(0), &topo.switches[0], &cfg);
        let hosts = topo.n_hosts as u64;
        self.fastest_ns(name, || {
            let (acc, secs) = timed(|| {
                let mut acc = 0u64;
                for i in 0..n {
                    let dst = HostId((1 + i % (hosts - 1)) as u32);
                    acc += egress_for(&sw, HostId(0), dst, FlowId(i as u32)) as u64;
                }
                acc
            });
            black_box(acc);
            (secs, n)
        })
    }

    /// `net.topology_build_ms`, in **ns** per k=8 fat-tree built.
    pub fn topology_build_ns(&mut self, name: &str) -> f64 {
        self.fastest_ns(name, || {
            let (topo, secs) = timed(fat_tree_k8);
            black_box(topo.n_hosts);
            (secs, 1)
        })
    }

    /// `net.partition_build_us`, in **ns** per `PartitionMap` built.
    pub fn partition_build_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        self.fastest_ns(name, || {
            let (map, secs) = timed(|| PartitionMap::for_topology(topo));
            black_box(map.is_sharded());
            (secs, 1)
        })
    }

    /// `cc.on_ack_ns.<kind>`: `CcFlow::on_ack` on a five-hop INT `AckView`
    /// whose counters advance like a flow at ~90 % of line rate with a
    /// small moving queue; FNCC sees `concurrent_flows` set, RoCC an echoed
    /// rate.
    pub fn on_ack_ns(&mut self, name: &str, kind: CcKind) -> f64 {
        const PAYLOAD: u64 = 1456;
        let n = self.ops(100_000);
        let line = Bandwidth::gbps(100);
        let base_rtt = TimeDelta::from_us(13);
        let algo = make_algo(kind, line, base_rtt);
        self.fastest_ns(name, || {
            let mut flow = algo.new_flow();
            let mut int = [IntRecord {
                bandwidth: line,
                ts: SimTime::ZERO,
                tx_bytes: 0,
                qlen: 0,
            }; 5];
            let ((), secs) = timed(|| {
                for i in 1..=n {
                    // One ACK per MTU at 90 % load: 130 ns apart.
                    let now = SimTime::from_us(20) + TimeDelta::from_ns(i * 130);
                    for (hop, rec) in int.iter_mut().enumerate() {
                        rec.ts = now - TimeDelta::from_us(2 + hop as u64);
                        rec.tx_bytes = i * 1460;
                        rec.qlen = (i * 37 + hop as u64 * 911) % 30_000;
                    }
                    flow.on_sent(PAYLOAD);
                    flow.on_ack(&AckView {
                        now,
                        seq: i * PAYLOAD,
                        snd_nxt: (i + 60) * PAYLOAD,
                        newly_acked: PAYLOAD,
                        int: &int,
                        concurrent_flows: 4,
                        rocc_rate: 60e9,
                        rtt: base_rtt + TimeDelta::from_ns(i * 37 % 3000),
                    });
                }
            });
            black_box(flow.pacing_rate_bps());
            (secs, n)
        })
    }

    /// `transport.two_host_ns_per_pkt`: one 10 MB FNCC flow between two
    /// hosts on a one-switch star through `SimBuilder`, per data packet. A
    /// composite: it holds the scheduler, the switch and both `DcHost`s, so
    /// it is an upper bound on host cost, not a host-only number.
    pub fn two_host_ns_per_pkt(&mut self, name: &str) -> f64 {
        let size = self.ops(10_000_000);
        let topo = Topology::star(2, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let pkts = size.div_ceil(FabricConfig::paper_default().mtu_payload() as u64);
        self.fastest_ns(name, || {
            let mut sim = SimBuilder::new(topo.clone(), CcKind::Fncc)
                .flows([FlowSpec {
                    id: FlowId(0),
                    src: HostId(0),
                    dst: HostId(1),
                    size,
                    start: SimTime::ZERO,
                }])
                .build();
            let (done, secs) =
                timed(|| sim.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(100)));
            assert!(done, "two-host flow did not finish");
            (secs, pkts)
        })
    }

    /// `workloads.poisson_flow_ns`: `poisson_flows` per generated flow
    /// (128 hosts, WebSearch, load 0.5).
    pub fn poisson_flow_ns(&mut self, name: &str) -> f64 {
        let n = self.ops(20_000);
        let cdf = fncc_workloads::distributions::web_search();
        let mut seed = 0;
        self.fastest_ns(name, || {
            seed += 1;
            let cfg = PoissonConfig {
                n_hosts: 128,
                line: Bandwidth::gbps(100),
                load: 0.5,
                n_flows: n as u32,
                first_id: 0,
                start: SimTime::ZERO,
                seed,
            };
            let (flows, secs) = timed(|| poisson_flows(&cfg, &cdf));
            black_box(flows.len());
            (secs, n)
        })
    }

    /// `fluid.delta_solve_ns`: `remove_flow` + `add_flow` + `rebalance`
    /// per event at [`STANDING`] active flows on `topo`'s link set.
    pub fn delta_solve_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        let tr = churn_trace(topo, self.ops(400) as usize);
        let mut wf = WaterFiller::new(tr.caps.len());
        self.fastest_ns(name, || {
            wf.begin_incremental(&tr.caps);
            let mut alive: Vec<u32> = tr.paths[..STANDING]
                .iter()
                .map(|p| wf.add_flow(p))
                .collect();
            wf.rebalance();
            let (acc, secs) = timed(|| {
                let mut acc = 0.0;
                for (ev, &gone) in tr.removals.iter().enumerate() {
                    wf.remove_flow(alive[gone]);
                    alive[gone] = wf.add_flow(&tr.paths[STANDING + ev]);
                    wf.rebalance();
                    acc += wf.rate(alive[gone]);
                }
                acc
            });
            black_box(acc);
            (secs, tr.removals.len() as u64)
        })
    }

    /// `fluid.cold_allocate_us`, in **ns** per solve: the one-shot
    /// `allocate` oracle over the same [`STANDING`] flows. No optimisation
    /// targets it; it should not move.
    pub fn cold_allocate_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        let solves = self.ops(20);
        let tr = churn_trace(topo, 0);
        let demands: Vec<Demand<'_>> = tr
            .paths
            .iter()
            .map(|p| Demand {
                cap: f64::INFINITY,
                path: p,
            })
            .collect();
        let mut wf = WaterFiller::new(tr.caps.len());
        let mut rates = Vec::new();
        self.fastest_ns(name, || {
            let ((), secs) = timed(|| {
                for _ in 0..solves {
                    wf.allocate(&tr.caps, &demands, &mut rates);
                }
            });
            black_box(rates[0]);
            (secs, solves)
        })
    }

    /// `fluid.coupler_advance_ns`: `BackgroundFluid::next_event` +
    /// `advance_to` per fluid event boundary over a 3 000-flow trace, as
    /// the hybrid driver steps it.
    pub fn coupler_advance_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        let n_flows = self.ops(3_000) as u32;
        self.fastest_ns(name, || {
            let mut bg = background(topo, n_flows);
            let (steps, secs) = timed(|| {
                let mut steps = 0u64;
                while let Some(t) = bg.next_event() {
                    bg.advance_to(t).expect("background fluid advances");
                    steps += 1;
                }
                steps
            });
            (secs, steps)
        })
    }

    /// `fluid.coupler_reserve_ns`: `BackgroundFluid::reserve` with a
    /// changing foreground load on a rotating link, mid-trace.
    pub fn coupler_reserve_ns(&mut self, name: &str, topo: &Topology) -> f64 {
        let n = self.ops(100_000);
        let mut bg = background(topo, 1_000);
        for _ in 0..500 {
            let t = bg
                .next_event()
                .expect("a 1 000-flow trace has 2 000 events");
            bg.advance_to(t).expect("background fluid advances");
        }
        let links = bg.link_map().len() as u64;
        self.fastest_ns(name, || {
            let ((), secs) = timed(|| {
                for i in 0..n {
                    bg.reserve((i % links) as u32, (1 + i % 40) as f64 * 1e9);
                }
            });
            black_box(bg.background_load(0));
            (secs, n)
        })
    }

    /// `obs.trace_record_ns` / `obs.trace_off_ns`: `TraceSink::record` on
    /// an armed ring (wrapping) or on a disabled sink.
    pub fn trace_record_ns(&mut self, name: &str, armed: bool) -> f64 {
        let n = self.ops(500_000);
        let mut sink = if armed {
            TraceSink::with_capacity(1 << 16)
        } else {
            TraceSink::disabled()
        };
        self.fastest_ns(name, || {
            let ((), secs) = timed(|| {
                for i in 0..n {
                    sink.record(black_box(enqueue(i)));
                }
            });
            black_box(sink.len());
            (secs, n)
        })
    }

    /// `obs.hist_record_ns`: `Histogram::record` over FCT-like values.
    pub fn hist_record_ns(&mut self, name: &str) -> f64 {
        let n = self.ops(500_000);
        let mut hist = Histogram::new();
        self.fastest_ns(name, || {
            let ((), secs) = timed(|| {
                for i in 0..n {
                    hist.record(black_box(20 + (i * 7919) % 50_000));
                }
            });
            black_box(hist.count());
            (secs, n)
        })
    }

    /// Fastest-of-[`BATCHES`] nanoseconds of one call of `f` (report
    /// serialisation).
    pub fn call_ns<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> f64 {
        self.fastest_ns(name, || {
            let (out, secs) = timed(&mut f);
            black_box(out);
            (secs, 1)
        })
    }
}
