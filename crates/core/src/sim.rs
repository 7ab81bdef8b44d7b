//! The simulation builder: topology + CC scheme + flows → runnable [`Sim`].

use fncc_cc::{CcAlgo, CcKind};
use fncc_des::engine::{Engine, QueueKind, RunOutcome};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::config::FabricConfig;
use fncc_net::fabric::{Ev, Fabric, ShardCtx};
use fncc_net::ids::{FlowId, HostId, SwitchId};
use fncc_net::partition::PartitionMap;
use fncc_net::routing::CompiledRoutes;
use fncc_net::telemetry::{FlowRecord, Telemetry};
use fncc_net::topology::Topology;
use fncc_obs::{Profiler, TraceSink};
use fncc_transport::{
    apply_cc_features, DcHost, FlowSpec, HostTimer, RecoveryConfig, TransportConfig,
};
use std::sync::Arc;

// The paper-default scheme constructor is declared with the schemes in
// `fncc-cc`; it is re-exported for callers of this crate.
pub use fncc_cc::make_algo;

/// Builder for a complete simulation.
#[derive(Clone)]
pub struct SimBuilder {
    pub(crate) topo: Topology,
    pub(crate) cc: CcAlgo,
    pub(crate) fabric: FabricConfig,
    pub(crate) flows: Vec<FlowSpec>,
    ack_every: u32,
    sampling: Option<(TimeDelta, SimTime)>,
    watch_queues: Vec<(SwitchId, u8, String)>,
    watch_utils: Vec<(SwitchId, u8, String)>,
    watch_flows: Vec<(FlowId, String)>,
    watch_cc_rates: Vec<(FlowId, HostId, String)>,
    pub(crate) trace: bool,
    recovery: Option<RecoveryConfig>,
    partition: Option<(Arc<PartitionMap>, Option<u16>)>,
    /// The topology's forwarding tables, compiled ahead of `build` so that
    /// clones of this builder — a sharded run's replicas — share them.
    routes: Option<Vec<CompiledRoutes>>,
    queue: QueueKind,
}

impl SimBuilder {
    /// A builder over `topo` running `kind` with paper-default parameters.
    /// The base RTT for window-based schemes is computed from the topology.
    pub fn new(topo: Topology, kind: CcKind) -> Self {
        let frames = FabricConfig::paper_default();
        let base_rtt = topo.base_rtt(frames.mtu, frames.ack_base);
        let cc = make_algo(kind, topo.host_ports[0].bw, base_rtt);
        SimBuilder::with_algo(topo, cc)
    }

    /// Same, but with an explicit (possibly non-default) CC configuration.
    pub fn with_algo(topo: Topology, cc: CcAlgo) -> Self {
        let mut fabric = FabricConfig::paper_default();
        let line = topo.host_ports[0].bw;
        apply_cc_features(&mut fabric, cc.kind(), line);
        SimBuilder {
            topo,
            cc,
            fabric,
            flows: Vec::new(),
            ack_every: 1,
            sampling: None,
            watch_queues: Vec::new(),
            watch_utils: Vec::new(),
            watch_flows: Vec::new(),
            watch_cc_rates: Vec::new(),
            trace: false,
            recovery: None,
            partition: None,
            routes: None,
            queue: QueueKind::Wheel,
        }
    }

    /// Mutate the fabric configuration (PFC thresholds, buffer, INT refresh…).
    pub fn fabric(mut self, f: impl FnOnce(&mut FabricConfig)) -> Self {
        f(&mut self.fabric);
        self
    }

    /// Add flows.
    pub fn flows(mut self, flows: impl IntoIterator<Item = FlowSpec>) -> Self {
        self.flows.extend(flows);
        self
    }

    /// Cumulative-ACK granularity (§3.2.3's `m`).
    pub fn ack_every(mut self, m: u32) -> Self {
        self.ack_every = m;
        self
    }

    /// Enable telemetry sampling every `every` until `until`.
    pub fn sample(mut self, every: TimeDelta, until: SimTime) -> Self {
        self.sampling = Some((every, until));
        self
    }

    /// Watch a switch egress queue.
    pub fn watch_queue(mut self, sw: SwitchId, port: u8, name: impl Into<String>) -> Self {
        self.watch_queues.push((sw, port, name.into()));
        self
    }

    /// Watch a switch egress utilization.
    pub fn watch_util(mut self, sw: SwitchId, port: u8, name: impl Into<String>) -> Self {
        self.watch_utils.push((sw, port, name.into()));
        self
    }

    /// Watch a flow's sending rate.
    pub fn watch_flow(mut self, flow: FlowId, name: impl Into<String>) -> Self {
        self.watch_flows.push((flow, name.into()));
        self
    }

    /// Watch a flow's CC pacing rate (the sender's control variable).
    pub fn watch_cc_rate(mut self, flow: FlowId, host: HostId, name: impl Into<String>) -> Self {
        self.watch_cc_rates.push((flow, host, name.into()));
        self
    }

    /// Arm the flight-recorder trace sink. Events accumulate in a ring
    /// buffer and are drained to a `fncc.trace/v1` artifact by the caller;
    /// the run's measurements are unaffected.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable go-back-N loss recovery on every host. Backends switch this
    /// on only for fault-injecting scenarios, keeping lossless runs free of
    /// retransmission-timer events (and their goldens byte-identical).
    pub fn recovery(mut self, rec: Option<RecoveryConfig>) -> Self {
        self.recovery = rec;
        self
    }

    /// The event queue every replica's engine runs on: the timing wheel
    /// unless an equivalence test asks for [`QueueKind::Heap`], the oracle.
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue = kind;
        self
    }

    /// Build this sim as one replica of a `crate::sharded::ShardedSim` run
    /// over `map`. With `shard: None` it is the run's only replica: it owns
    /// every node and takes nothing from `map` but the event-ordering
    /// domains. With `Some(my)` it is pod shard `my` — still a full fabric
    /// replica, every switch and host allocated so ids stay global, but
    /// only events for entities `map` assigns to `my` are scheduled or
    /// processed here: flows, flow-start timers, watches and fault events
    /// are filtered by ownership, and frames leaving the shard go to the
    /// engine outbox instead of the local queue.
    pub(crate) fn partition(mut self, map: Arc<PartitionMap>, shard: Option<u16>) -> Self {
        self.partition = Some((map, shard));
        self
    }

    /// Compile the forwarding tables now: every clone made afterwards
    /// builds its fabric around this one compilation instead of its own.
    pub(crate) fn compile_routes(mut self) -> Self {
        self.routes = Some(self.topo.compile_routes());
        self
    }

    /// Finalize into a runnable [`Sim`].
    pub fn build(self) -> Sim {
        let kind = self.cc.kind();
        let mut tcfg = TransportConfig::new(self.cc).with_ack_every(self.ack_every);
        tcfg.recovery = self.recovery;
        let hosts: Vec<DcHost> = (0..self.topo.n_hosts)
            .map(|_| DcHost::new(tcfg.clone()))
            .collect();
        let routes = self.routes.unwrap_or_else(|| self.topo.compile_routes());
        let mut fabric = Fabric::with_routes(&self.topo, self.fabric, hosts, routes);
        // Event-ordering domains: tag every schedule with the owning shard
        // of the node performing it, on every partitionable topology — in
        // one-replica runs too, so ties at identical `(time, prio)` break
        // the same way at any thread count and reports stay byte-identical.
        // Unpartitionable topologies keep domain 0 everywhere (plain
        // schedule order). A `ShardedSim` hands its map in; a bare builder
        // derives the pod partition here.
        let (map, my) = match self.partition {
            Some((map, my)) => (map, my),
            None => (Arc::new(PartitionMap::for_topology(&self.topo)), None),
        };
        fabric.domains = map.is_sharded().then(|| map.clone());
        let shard = my.map(|my| (map, my));
        if let Some((map, my)) = &shard {
            fabric.shard = Some(ShardCtx::new(map.clone(), *my));
        }
        let owns_host = |h: HostId| shard.as_ref().is_none_or(|(m, my)| m.owner_host(h) == *my);
        let owns_switch = |s: SwitchId| {
            shard
                .as_ref()
                .is_none_or(|(m, my)| m.owner_switch(s) == *my)
        };

        for (sw, port, name) in self.watch_queues {
            if owns_switch(sw) {
                fabric.telemetry.watch_queue(sw, port, name);
            }
        }
        for (sw, port, name) in self.watch_utils {
            if owns_switch(sw) {
                let bw = fabric.switches[sw.ix()].ports[port as usize].bw;
                fabric.telemetry.watch_utilization(sw, port, bw, name);
            }
        }
        for (flow, name) in self.watch_flows {
            // Flow-rate watches sample sender-side tx bytes, so they live
            // in the sender's shard (unknown flows default to shard 0).
            let src = self.flows.iter().find(|f| f.id == flow).map(|f| f.src);
            let owned = match (&shard, src) {
                (None, _) => true,
                (Some((m, my)), Some(src)) => m.owner_host(src) == *my,
                (Some((_, my)), None) => *my == 0,
            };
            if owned {
                fabric.telemetry.watch_flow_rate(flow, name);
            }
        }
        for (flow, host, name) in self.watch_cc_rates {
            if owns_host(host) {
                fabric.telemetry.watch_cc_rate(flow, host, name);
            }
        }
        if let Some((every, until)) = self.sampling {
            fabric.telemetry.enable_sampling(every, until);
        }
        if self.trace {
            fabric.telemetry.trace = TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY);
        }

        for f in &self.flows {
            if owns_host(f.src) {
                fabric.hosts[f.src.ix()].add_flow(f.clone());
            }
        }
        // Receiver-side records for flows whose sender lives elsewhere:
        // the receiving shard observes the finish (last payload byte) but
        // never sees the sender's start, so the record is opened here with
        // the spec's start time — which is exactly when the sender's
        // FlowStart timer fires.
        if let Some((map, my)) = &shard {
            for f in &self.flows {
                if map.owner_host(f.dst) == *my && map.owner_host(f.src) != *my {
                    fabric.telemetry.flow_started(FlowRecord {
                        flow: f.id,
                        src: f.src,
                        dst: f.dst,
                        size: f.size,
                        start: f.start,
                        finish: None,
                    });
                }
            }
        }

        let mut eng = Engine::with_queue(fabric, self.queue);
        // Startup events carry their per-item ordering domain, exactly as
        // the dispatch loop will tag their follow-ups — a shard replica
        // schedules its (filtered) subset in the same relative order as the
        // single engine schedules the full list, so startup ties break
        // identically in both executions.
        for (t, ev) in eng.model.startup_events() {
            if owned_startup_event(&shard, &eng.model, &ev) {
                let d = eng.model.event_domain(&ev);
                eng.set_domain(d);
                eng.schedule(t, ev);
            }
        }
        for f in &self.flows {
            if owns_host(f.src) {
                let ev = Ev::HostTimer {
                    host: f.src,
                    timer: HostTimer::FlowStart(f.id),
                };
                let d = eng.model.event_domain(&ev);
                eng.set_domain(d);
                eng.schedule(f.start, ev);
            }
        }
        eng.set_domain(0);
        Sim {
            eng,
            topo: self.topo,
            kind,
        }
    }
}

/// Whether a startup event belongs on this shard. Periodic ticks fire on
/// every shard, each over the switches it owns (keeping per-switch timers
/// in phase without cross-shard traffic); fault boundaries fire on the
/// owner of either endpoint of the faulted link (each side handles its own
/// direction).
fn owned_startup_event(
    shard: &Option<(Arc<PartitionMap>, u16)>,
    fabric: &Fabric<DcHost>,
    ev: &Ev<HostTimer>,
) -> bool {
    let Some((map, my)) = shard else { return true };
    match ev {
        Ev::FaultStart { ix } | Ev::FaultEnd { ix } => {
            let (sw, port) = fabric.cfg.faults[*ix].location();
            let peer = fabric.switches[sw as usize].ports[port as usize].peer;
            map.owner_switch(SwitchId(sw)) == *my || map.owner_of(peer) == *my
        }
        _ => true,
    }
}

/// A runnable simulation with its topology kept for analysis.
pub struct Sim {
    pub(crate) eng: Engine<Fabric<DcHost>>,
    /// The network description (path tracing, ideal FCT).
    pub topo: Topology,
    /// The CC scheme in effect.
    pub kind: CcKind,
}

impl Sim {
    /// Run until `horizon` (periodic ticks keep the heap busy, so idle exits
    /// are rare outside workload runs).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.eng.run_until(horizon)
    }

    /// Run in `chunk` steps until every registered flow finished or `cap`
    /// is reached; returns true if all flows finished.
    pub fn run_to_completion(&mut self, chunk: TimeDelta, cap: SimTime) -> bool {
        let mut t = self.eng.now();
        loop {
            if self.eng.model.telemetry.flow_count() > 0
                && self.eng.model.telemetry.all_flows_finished()
            {
                return true;
            }
            if t >= cap {
                return self.eng.model.telemetry.all_flows_finished();
            }
            t = (t + chunk).min(cap);
            self.eng.run_until(t);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.eng.events_processed()
    }

    /// High-water mark of the engine's event-queue length.
    pub fn peak_queue_len(&self) -> usize {
        self.eng.peak_queue_len()
    }

    /// Times a schedule into the past was clamped to `now` (0 in a healthy
    /// model; nonzero flags a latent timing bug — see `Scheduler::at`).
    pub fn clamped_schedules(&self) -> u64 {
        self.eng.clamped_schedules()
    }

    /// Measurement results.
    pub fn telemetry(&self) -> &Telemetry {
        &self.eng.model.telemetry
    }

    /// The live fabric (ports, switches, pause counters).
    pub fn fabric(&self) -> &Fabric<DcHost> {
        &self.eng.model
    }

    /// The engine's self-profiler (scheduler-pop and dispatch spans;
    /// enabled only when `FNCC_PROFILE` is set).
    pub fn profiler(&self) -> &Profiler {
        self.eng.profiler()
    }

    /// Per-level cascade counts of the timing-wheel scheduler, if that
    /// scheduler is in use.
    pub fn wheel_cascades(&self) -> Option<&[u64]> {
        self.eng.wheel_cascades()
    }

    /// A host's transport state.
    pub fn host(&self, h: HostId) -> &DcHost {
        &self.eng.model.hosts[h.ix()]
    }

    /// The egress port switch `sw` uses on the request path of
    /// (`src`→`dst`, `flow`) — e.g. to find the bottleneck port to watch.
    pub fn egress_port_on_path(
        topo: &Topology,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        sw: SwitchId,
    ) -> Option<u8> {
        topo.trace_path(src, dst, flow)
            .into_iter()
            .find_map(|(n, p)| match n {
                fncc_net::ids::NodeRef::Switch(s) if s == sw => Some(p),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_net::config::IntInsertion;
    use fncc_net::units::Bandwidth;

    fn dumbbell() -> Topology {
        Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
    }

    /// A hand-built fabric is held to the validator a scenario file is: an
    /// out-of-range port fails with its message, not an index panic.
    #[test]
    #[should_panic(expected = "names port 9 of switch 0, which has only 3 ports")]
    fn hand_built_fault_list_is_validated() {
        let stuck = fncc_net::fault::FaultSpec::StuckPort {
            switch: 0,
            port: 9,
            at_us: 0,
            duration_us: 1,
        };
        SimBuilder::new(dumbbell(), CcKind::Fncc)
            .fabric(|f| f.faults.push(stuck))
            .build();
    }

    fn two_flows() -> Vec<FlowSpec> {
        vec![
            FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(2),
                size: 500_000,
                start: SimTime::ZERO,
            },
            FlowSpec {
                id: FlowId(1),
                src: HostId(1),
                dst: HostId(2),
                size: 500_000,
                start: SimTime::from_us(50),
            },
        ]
    }

    #[test]
    fn builder_wires_cc_features() {
        let s = SimBuilder::new(dumbbell(), CcKind::Hpcc).build();
        assert_eq!(s.fabric().cfg.int, IntInsertion::OnData);
        let s = SimBuilder::new(dumbbell(), CcKind::Fncc).build();
        assert_eq!(s.fabric().cfg.int, IntInsertion::OnAck);
        let s = SimBuilder::new(dumbbell(), CcKind::Dcqcn).build();
        assert!(s.fabric().cfg.ecn.enabled);
        let s = SimBuilder::new(dumbbell(), CcKind::Rocc).build();
        assert!(s.fabric().cfg.rocc.is_some());
    }

    #[test]
    fn run_to_completion_finishes_flows() {
        let mut s = SimBuilder::new(dumbbell(), CcKind::Hpcc)
            .flows(two_flows())
            .build();
        let done = s.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(10));
        assert!(done);
        assert!(s.telemetry().all_flows_finished());
        assert_eq!(s.telemetry().counters.drops, 0);
    }

    #[test]
    fn watches_produce_series() {
        let mut s = SimBuilder::new(dumbbell(), CcKind::Fncc)
            .flows(two_flows())
            .sample(TimeDelta::from_us(1), SimTime::from_us(200))
            .watch_queue(SwitchId(0), 2, "q")
            .watch_util(SwitchId(0), 2, "u")
            .watch_flow(FlowId(0), "r0")
            .build();
        s.run_until(SimTime::from_us(300));
        let t = s.telemetry();
        assert!(t.queue_series(SwitchId(0), 2).unwrap().len() > 100);
        assert!(t.util_series(SwitchId(0), 2).unwrap().max() > 0.5);
        assert!(t.flow_rate_series(FlowId(0)).unwrap().max() > 1e9);
    }

    /// A hand-built line deeper than `MAX_HOPS` cannot carry every hop's
    /// INT: the senders count what the full stacks dropped, in both INT
    /// modes; a line exactly `MAX_HOPS` deep drops nothing.
    #[test]
    fn int_truncations_counted_on_a_line_deeper_than_the_stack() {
        use fncc_net::packet::MAX_HOPS;
        let run = |switches: usize, cc: CcKind| {
            let topo = Topology::line(
                switches as u32,
                &[0],
                Bandwidth::gbps(100),
                TimeDelta::from_ns(500),
            );
            let flow = FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(1),
                size: 100_000,
                start: SimTime::ZERO,
            };
            let mut s = SimBuilder::new(topo, cc).flows([flow]).build();
            assert!(s.run_to_completion(TimeDelta::from_us(100), SimTime::from_ms(10)));
            (
                s.telemetry().counters.int_truncations,
                s.telemetry().counters.acks_delivered,
            )
        };
        for cc in [CcKind::Fncc, CcKind::Hpcc] {
            let (dropped, acks) = run(MAX_HOPS + 2, cc);
            assert!(dropped > 0, "{cc:?}: no truncation counted");
            assert_eq!(dropped, 2 * acks, "{cc:?}: two records lost per ACK");
            assert_eq!(run(MAX_HOPS, cc).0, 0, "{cc:?}");
        }
    }

    #[test]
    fn egress_port_lookup_matches_dumbbell_layout() {
        let topo = dumbbell();
        let p = Sim::egress_port_on_path(&topo, HostId(0), HostId(2), FlowId(0), SwitchId(0));
        assert_eq!(p, Some(2));
        let p = Sim::egress_port_on_path(&topo, HostId(0), HostId(2), FlowId(0), SwitchId(1));
        assert_eq!(p, Some(1));
        assert_eq!(
            Sim::egress_port_on_path(&topo, HostId(0), HostId(1), FlowId(0), SwitchId(2)),
            None,
        );
    }

    #[test]
    fn make_algo_covers_all_kinds() {
        let line = Bandwidth::gbps(100);
        let rtt = TimeDelta::from_us(12);
        for kind in CcKind::ALL {
            assert_eq!(make_algo(kind, line, rtt).kind(), kind);
        }
    }
}
