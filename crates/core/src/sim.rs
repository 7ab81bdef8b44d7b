//! The simulation builder: topology + CC scheme + flows → runnable [`Sim`].

use fncc_cc::{CcAlgo, CcKind};
use fncc_des::engine::{Engine, QueueKind, RunOutcome};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::config::FabricConfig;
use fncc_net::fabric::{Ev, Fabric, ShardCtx};
use fncc_net::ids::{FlowId, HostId, SwitchId};
use fncc_net::partition::PartitionMap;
use fncc_net::telemetry::{Probe, Telemetry};
use fncc_net::topology::Topology;
use fncc_obs::TraceSink;
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
    watches: Vec<(Probe, String)>,
    pub(crate) trace: bool,
    recovery: Option<RecoveryConfig>,
    partition: Option<(Arc<PartitionMap>, Option<u16>)>,
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
            watches: Vec::new(),
            trace: false,
            recovery: None,
            partition: None,
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

    /// Sample `probe` into the series `name` (read back with
    /// [`Telemetry::series`]; needs [`SimBuilder::sample`]).
    pub fn watch(mut self, probe: Probe, name: impl Into<String>) -> Self {
        self.watches.push((probe, name.into()));
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
    /// engine outbox instead of the local queue. A shard registers the flow
    /// records of the flows whose receiver it owns, where they finish.
    pub(crate) fn partition(mut self, map: Arc<PartitionMap>, shard: Option<u16>) -> Self {
        self.partition = Some((map, shard));
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
        let mut fabric = Fabric::new(&self.topo, self.fabric, hosts);
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

        for (probe, name) in self.watches {
            let owned = match probe {
                Probe::Queue { sw, .. } | Probe::Util { sw, .. } => owns_switch(sw),
                Probe::FlowRate { host, .. } | Probe::CcRate { host, .. } => owns_host(host),
            };
            if owned {
                fabric.telemetry.watch(probe, name);
            }
        }
        if let Some((every, until)) = self.sampling {
            fabric.telemetry.enable_sampling(every, until);
        }
        if self.trace {
            fabric.telemetry.rec.trace = TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY);
        }

        // A flow's record lives where it finishes: with its receiver. The
        // table is allocated once, at its exact length.
        let carried = || self.flows.iter().filter(|f| owns_host(f.dst));
        let mut records = Vec::with_capacity(carried().count());
        records.extend(carried().map(FlowSpec::record));
        fabric.telemetry.register_flows(records);
        for f in &self.flows {
            if owns_host(f.src) {
                fabric.hosts[f.src.ix()].add_flow(f.clone());
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

    /// Run in `chunk` steps until every flow of the builder finished or
    /// `cap` is reached; returns true if all flows finished (at once, with
    /// none).
    pub fn run_to_completion(&mut self, chunk: TimeDelta, cap: SimTime) -> bool {
        let mut t = self.eng.now();
        while !self.telemetry().all_flows_finished() {
            if t >= cap {
                return false;
            }
            t = (t + chunk).min(cap);
            self.eng.run_until(t);
        }
        true
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
        topo.path_hops(src, dst, flow).find_map(|(n, p)| match n {
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
        assert!(s.fabric().cfg.ecn.is_some());
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
        let (sw, port) = (SwitchId(0), 2);
        let (flow, host) = (FlowId(0), HostId(0));
        let mut s = SimBuilder::new(dumbbell(), CcKind::Fncc)
            .flows(two_flows())
            .sample(TimeDelta::from_us(1), SimTime::from_us(200))
            .watch(Probe::Queue { sw, port }, "q")
            .watch(Probe::Util { sw, port }, "u")
            .watch(Probe::FlowRate { flow, host }, "r0")
            .build();
        s.run_until(SimTime::from_us(300));
        let t = s.telemetry();
        assert!(t.series("q").unwrap().len() > 100);
        assert!(t.series("u").unwrap().max() > 0.5);
        assert!(t.series("r0").unwrap().max() > 1.0, "Gb/s");
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
