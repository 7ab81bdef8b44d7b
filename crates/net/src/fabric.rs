//! The live network: switches + host NICs driven by the DES engine.
//!
//! Host *behaviour* (transport, congestion control) is supplied by the
//! [`HostLogic`] trait, implemented in `fncc-transport`; this module owns the
//! mechanics every host shares — NIC serialization, PFC pause reaction, link
//! propagation — and all event plumbing.

use crate::config::FabricConfig;
use crate::fault::FaultSpec;
use crate::ids::{FlowId, HostId, NodeRef, SwitchId};
use crate::packet::{Packet, PacketKind};
use crate::partition::PartitionMap;
use crate::pool::PacketPool;
use crate::port::Port;
use crate::routing::CompiledRoutes;
use crate::switch::{Switch, SwitchOutput, SwitchSink};
use crate::telemetry::Telemetry;
use crate::topology::Topology;
use crate::units::Bandwidth;
use fncc_des::engine::{Model, Scheduler};
use fncc_des::time::{SimTime, TimeDelta};
use std::sync::Arc;

/// Ordering domain stamped onto the periodic ticks (INT refresh, RoCC,
/// sampling) when domain tagging is on. Ticks have no owning node — every
/// shard fires its own, over the switches it owns — so they get a reserved
/// domain above every shard id: a tick that ties a data event at the same
/// `(time, prio)` dispatches after it, identically in the single-engine
/// and sharded executions (the comparison never reaches the engine-local
/// counters, which differ between the two).
pub const TICK_DOMAIN: u16 = u16::MAX;

/// Sharded-run context attached to a fabric replica: which shard this
/// replica executes, and the partition map used to route frames that cross
/// into another shard's event loop.
pub struct ShardCtx {
    /// The global partition map, shared by every shard replica.
    pub map: Arc<PartitionMap>,
    /// This replica's shard id.
    pub my: u16,
    /// Events processed here that another shard also counts (a periodic
    /// tick fires on every shard, each sweeping its own switches, and
    /// shard 0 counts it; fault boundaries are counted by the owner
    /// of the faulted switch). Subtracted when aggregating
    /// `events_processed` across shards so the total matches the
    /// single-engine run.
    pub replica_events: u64,
}

impl ShardCtx {
    /// Attach shard `my` of `map`.
    pub fn new(map: Arc<PartitionMap>, my: u16) -> Self {
        ShardCtx {
            map,
            my,
            replica_events: 0,
        }
    }

    /// True when this replica owns `n`.
    #[inline]
    pub fn owns(&self, n: NodeRef) -> bool {
        self.map.owner_of(n) == self.my
    }
}

/// The fabric's event alphabet, generic over the host-timer payload.
#[derive(Debug)]
pub enum Ev<T> {
    /// A frame fully arrived at `node` on `port` (after propagation).
    Arrive {
        /// Receiving node.
        node: NodeRef,
        /// Receiving port.
        port: u8,
        /// The frame.
        pkt: Box<Packet>,
    },
    /// `node`'s `port` finished serializing its in-flight frame.
    TxDone {
        /// Transmitting node.
        node: NodeRef,
        /// Transmitting port.
        port: u8,
    },
    /// A host-defined timer fired.
    HostTimer {
        /// Owning host.
        host: HostId,
        /// Transport-defined payload.
        timer: T,
    },
    /// Periodic `All_INT_Table` refresh across this replica's switches.
    IntRefresh,
    /// Periodic RoCC PI-controller step across this replica's switches.
    RoccTick,
    /// Telemetry sampling tick.
    Sample,
    /// `cfg.faults[ix]` takes effect: the link dies or comes up, the
    /// degradation or loss window opens, the port sticks.
    FaultStart {
        /// Index into `cfg.faults`.
        ix: usize,
    },
    /// `cfg.faults[ix]`'s window closes (degradation, loss, stuck port;
    /// link down/up have no end event).
    FaultEnd {
        /// Index into `cfg.faults`.
        ix: usize,
    },
}

/// Host-side services exposed to [`HostLogic`] callbacks.
pub struct HostCtx<'a, T> {
    now: SimTime,
    host: HostId,
    /// Fabric configuration (MTU, header sizes, …).
    pub cfg: &'a FabricConfig,
    /// Telemetry sink (flow records, counters).
    pub telemetry: &'a mut Telemetry,
    port: &'a mut Port,
    pool: &'a mut PacketPool,
    sched: &'a mut Scheduler<Ev<T>>,
}

impl<'a, T> HostCtx<'a, T> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This host's id.
    #[inline]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// NIC line rate.
    #[inline]
    pub fn nic_bw(&self) -> Bandwidth {
        self.port.bw
    }

    /// Bytes currently queued (plus in flight) at the NIC.
    #[inline]
    pub fn nic_backlog(&self) -> u64 {
        self.port.queue_bytes
            + self
                .port
                .in_flight
                .as_ref()
                .map(|p| p.size as u64)
                .unwrap_or(0)
    }

    /// The shared packet pool: allocate outgoing frames here.
    #[inline]
    pub fn pool(&mut self) -> &mut PacketPool {
        self.pool
    }

    /// Return a fully consumed frame to the pool.
    #[inline]
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        self.pool.put(pkt);
    }

    /// Hand a frame to the NIC for transmission.
    pub fn send(&mut self, pkt: Box<Packet>) {
        debug_assert!(!pkt.kind.is_control(), "hosts do not send PFC frames");
        self.port.enqueue(pkt);
        start_port_tx(NodeRef::Host(self.host), self.port, self.sched);
    }

    /// Fire `timer` after `d`.
    pub fn schedule(&mut self, d: TimeDelta, timer: T) {
        self.sched.after(
            d,
            Ev::HostTimer {
                host: self.host,
                timer,
            },
        );
    }
}

/// Transport/host behaviour plugged into the fabric.
pub trait HostLogic: Sized {
    /// Timer payload type (flow pacing, CC timers, flow starts, …).
    type Timer: core::fmt::Debug;

    /// A data/ACK/CNP frame was delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, Self::Timer>, pkt: Box<Packet>);

    /// A previously scheduled timer fired.
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, Self::Timer>, timer: Self::Timer);

    /// The congestion-control pacing rate of a locally originated flow, if
    /// live (telemetry probe for "first to slow down" measurements).
    fn cc_rate_bps(&self, _flow: FlowId) -> Option<f64> {
        None
    }

    /// Payload bytes of a locally originated flow handed to the NIC so far,
    /// retransmissions included; 0 before the flow starts (telemetry probe
    /// for sending rates).
    fn sent_bytes(&self, _flow: FlowId) -> u64 {
        0
    }
}

/// The complete simulated network.
pub struct Fabric<H: HostLogic> {
    /// Configuration shared by all nodes.
    pub cfg: FabricConfig,
    /// Switches by id.
    pub switches: Vec<Switch>,
    /// Host NIC egress ports by host id.
    pub host_ports: Vec<Port>,
    /// Host behaviours by host id.
    pub hosts: Vec<H>,
    /// Measurement sink.
    pub telemetry: Telemetry,
    /// Shared packet free-list (recycles every consumed frame).
    pub pool: PacketPool,
    /// Pre-degradation propagation delay per `cfg.faults` entry, captured
    /// when a `LinkDegrade` window opens and restored when it closes.
    degrade_base_prop: Vec<TimeDelta>,
    /// Sharded-run context; `None` for the ordinary single-engine run.
    pub shard: Option<ShardCtx>,
    /// Partition map used purely for event-ordering domains (see
    /// [`Scheduler::set_domain`]): every schedule is tagged with the shard
    /// that owns the node whose handler performs it, so same-`(time, prio)`
    /// ties break identically in the single-engine and sharded executions.
    /// Set for every partitionable topology — including plain single-engine
    /// runs, which is what makes their reports byte-identical to sharded
    /// ones — and `None` otherwise (domain 0 everywhere: plain schedule
    /// order, the pre-sharding behaviour).
    pub domains: Option<Arc<PartitionMap>>,
}

impl<H: HostLogic> Fabric<H> {
    /// Build a fabric over `topo` with one [`HostLogic`] per host. Panics
    /// with [`crate::fault::validate`]'s message when `cfg.faults` does not
    /// fit `topo`.
    pub fn new(topo: &Topology, cfg: FabricConfig, hosts: Vec<H>) -> Self {
        Fabric::with_routes(topo, cfg, hosts, topo.compile_routes())
    }

    /// [`Fabric::new`] over forwarding tables compiled beforehand
    /// ([`Topology::compile_routes`]): the replicas of a sharded run are
    /// built around one compilation and share its tables.
    pub fn with_routes(
        topo: &Topology,
        cfg: FabricConfig,
        hosts: Vec<H>,
        routes: Vec<CompiledRoutes>,
    ) -> Self {
        assert_eq!(hosts.len(), topo.n_hosts as usize, "one HostLogic per host");
        assert_eq!(routes.len(), topo.switches.len(), "one table per switch");
        if let Err(e) = crate::fault::validate(&cfg.faults, topo) {
            panic!("invalid fault list: {e}");
        }
        let switches = topo
            .switches
            .iter()
            .zip(routes)
            .enumerate()
            .map(|(i, (spec, r))| Switch::with_routes(SwitchId(i as u32), spec, &cfg, r))
            .collect();
        let host_ports = topo.host_ports.iter().map(Port::from_spec).collect();
        let degrade_base_prop = vec![TimeDelta::ZERO; cfg.faults.len()];
        Fabric {
            cfg,
            switches,
            host_ports,
            hosts,
            telemetry: Telemetry::new(),
            pool: PacketPool::new(),
            degrade_base_prop,
            shard: None,
            domains: None,
        }
    }

    /// The ordering domain of `n`'s schedules: its owning shard under the
    /// domain map, or 0 when tagging is off.
    #[inline]
    fn node_domain(&self, n: NodeRef) -> u16 {
        self.domains.as_ref().map_or(0, |m| m.owner_of(n))
    }

    /// The ordering domain of the periodic ticks: [`TICK_DOMAIN`], or 0
    /// when tagging is off.
    #[inline]
    fn tick_domain(&self) -> u16 {
        self.domains.as_ref().map_or(0, |_| TICK_DOMAIN)
    }

    /// The ordering domain of `cfg.faults[ix]`'s boundaries: the owner of
    /// the switch the fault names.
    fn fault_domain(&self, ix: usize) -> u16 {
        self.node_domain(NodeRef::Switch(SwitchId(self.cfg.faults[ix].location().0)))
    }

    /// The ordering domain an event's handler schedules in: the shard
    /// owning the node that processes it, [`TICK_DOMAIN`] for the global
    /// periodic ticks, and the faulted node's (respectively primary
    /// switch's) owner for fault events. A pure function of the event, so
    /// the tag is identical no matter which engine — single or shard
    /// replica — handles it; 0 for everything when tagging is off.
    /// [`Model::handle`] sets the same domain arm by arm; this is for
    /// events scheduled from outside a handler.
    pub fn event_domain(&self, ev: &Ev<H::Timer>) -> u16 {
        match ev {
            Ev::Arrive { node, .. } | Ev::TxDone { node, .. } => self.node_domain(*node),
            Ev::HostTimer { host, .. } => self.node_domain(NodeRef::Host(*host)),
            Ev::IntRefresh | Ev::RoccTick | Ev::Sample => self.tick_domain(),
            Ev::FaultStart { ix } | Ev::FaultEnd { ix } => self.fault_domain(*ix),
        }
    }

    /// Initial events the caller must schedule on the engine before running:
    /// the periodic ticks (INT refresh, RoCC, sampling) and every fault's
    /// start and end.
    pub fn startup_events(&self) -> Vec<(SimTime, Ev<H::Timer>)> {
        let mut evs = Vec::new();
        if self.cfg.int_refresh.is_some() {
            evs.push((SimTime::ZERO, Ev::IntRefresh));
        }
        if self.cfg.rocc.is_some() {
            evs.push((SimTime::ZERO, Ev::RoccTick));
        }
        if !self.telemetry.sample_interval.is_zero() {
            evs.push((SimTime::ZERO, Ev::Sample));
        }
        for (ix, f) in self.cfg.faults.iter().enumerate() {
            let (start, end) = f.span_us();
            evs.push((SimTime::from_us(start), Ev::FaultStart { ix }));
            if let Some(end) = end {
                evs.push((SimTime::from_us(end), Ev::FaultEnd { ix }));
            }
        }
        evs
    }

    /// What every periodic tick (INT refresh, RoCC, sampling) does first: it
    /// schedules in the tick domain, and since every shard fires the tick
    /// at the same instants — so that per-switch timers stay in phase
    /// without cross-shard traffic — shard 0 counts one as a real event and
    /// every other shard as a replica, so the aggregated `events_processed`
    /// matches the single-engine run.
    fn begin_tick(&mut self, sched: &mut Scheduler<Ev<H::Timer>>) {
        sched.set_domain(self.tick_domain());
        if let Some(sc) = &mut self.shard {
            if sc.my != 0 {
                sc.replica_events += 1;
            }
        }
    }

    /// Set the phantom egress backlog of the port at `(node, port)`: the
    /// standing queue of co-simulated fluid traffic on this link. The
    /// backlog inflates the port's congestion signals (INT `qLen`, ECN
    /// marking depth, RoCC queue sample) and delays delivered frames by
    /// its line-rate serialization time; see [`Port::set_backlog`].
    pub fn set_port_backlog(&mut self, node: NodeRef, port: u8, bytes: u64) {
        match node {
            NodeRef::Switch(s) => self.switches[s.ix()].ports[port as usize].set_backlog(bytes),
            NodeRef::Host(h) => {
                debug_assert_eq!(port, 0, "hosts have a single port");
                self.host_ports[h.ix()].set_backlog(bytes);
            }
        }
    }

    /// Convenience: run `f` with a [`HostCtx`] for `host`.
    fn with_host_ctx(
        &mut self,
        host: HostId,
        now: SimTime,
        sched: &mut Scheduler<Ev<H::Timer>>,
        f: impl FnOnce(&mut H, &mut HostCtx<'_, H::Timer>),
    ) {
        let hix = host.ix();
        let mut ctx = HostCtx {
            now,
            host,
            cfg: &self.cfg,
            telemetry: &mut self.telemetry,
            port: &mut self.host_ports[hix],
            pool: &mut self.pool,
            sched,
        };
        f(&mut self.hosts[hix], &mut ctx);
    }

    fn host_arrive(
        &mut self,
        host: HostId,
        pkt: Box<Packet>,
        now: SimTime,
        sched: &mut Scheduler<Ev<H::Timer>>,
    ) {
        match pkt.kind {
            PacketKind::PfcPause | PacketKind::PfcResume => {
                let pause = pkt.kind == PacketKind::PfcPause;
                let p = &mut self.host_ports[host.ix()];
                p.on_pfc_rx(pause, now, NodeRef::Host(host), 0, &mut self.telemetry);
                self.pool.put(pkt);
                if !pause {
                    start_port_tx(NodeRef::Host(host), p, sched);
                }
            }
            kind => {
                match kind {
                    PacketKind::Data => self.telemetry.counters.data_delivered += 1,
                    PacketKind::Ack => self.telemetry.counters.acks_delivered += 1,
                    PacketKind::Cnp => self.telemetry.counters.cnps_delivered += 1,
                    _ => unreachable!(),
                }
                self.with_host_ctx(host, now, sched, |h, ctx| h.on_packet(ctx, pkt));
            }
        }
    }

    fn do_sample(&mut self, now: SimTime) {
        let (switches, hosts) = (&self.switches, &self.hosts);
        self.telemetry.sample(
            now,
            |s, p| &switches[s.ix()].ports[p as usize],
            |h| &hosts[h.ix()],
        );
    }

    /// Total PFC pause frames sent by one switch port (Fig. 3's metric).
    pub fn pause_frames_at(&self, sw: SwitchId, port: u8) -> u64 {
        self.switches[sw.ix()].ports[port as usize].pause_tx
    }

    /// Tear down one direction of a link at `sw`'s egress `port`; the PFC
    /// resumes freed by the purge go straight into `sched`.
    fn switch_link_down(
        &mut self,
        sw: SwitchId,
        port: u8,
        now: SimTime,
        sched: &mut Scheduler<Ev<H::Timer>>,
    ) {
        let mut out = SwitchEmit(sw, &self.shard, sched);
        self.switches[sw.ix()].link_down(
            now,
            port,
            &self.cfg,
            &mut self.telemetry,
            &mut self.pool,
            &mut out,
        );
    }

    /// Apply one boundary of `cfg.faults[ix]`. `LinkDown`/`LinkUp` fail or
    /// restore *both* directions of the link (the validator guarantees the
    /// peer is a switch); the window kinds affect only the named egress
    /// direction (inject two specs to fault both directions).
    ///
    /// In a sharded run the boundary fires on every shard owning one of
    /// the link's endpoints: each shard touches only its own side, and the
    /// owner of the named switch counts the event as real, the peer's
    /// owner as a replica.
    fn fault_transition(
        &mut self,
        ix: usize,
        now: SimTime,
        opening: bool,
        sched: &mut Scheduler<Ev<H::Timer>>,
    ) {
        sched.set_domain(self.fault_domain(ix));
        let spec = self.cfg.faults[ix];
        let (sw, port) = spec.location();
        let s = SwitchId(sw);
        let (peer, peer_port) = {
            let p = &self.switches[s.ix()].ports[port as usize];
            (p.peer, p.peer_port)
        };
        let owns = |n: NodeRef| self.shard.as_ref().is_none_or(|sc| sc.owns(n));
        let owns_primary = owns(NodeRef::Switch(s));
        let owns_peer = owns(peer);
        if !owns_primary {
            if let Some(sc) = &mut self.shard {
                sc.replica_events += 1;
            }
        }
        match spec {
            FaultSpec::LinkDown { .. } => {
                if owns_primary {
                    self.switch_link_down(s, port, now, sched);
                }
                if let NodeRef::Switch(s2) = peer {
                    if owns_peer {
                        // The peer-side teardown schedules on behalf of the
                        // peer switch, which may live in another shard: tag
                        // its domain so the resulting events order the same
                        // way whether one engine handles both sides or each
                        // owner handles its own.
                        sched.set_domain(self.node_domain(peer));
                        self.switch_link_down(s2, peer_port, now, sched);
                    }
                }
            }
            FaultSpec::LinkUp { .. } => {
                if owns_primary {
                    self.switches[s.ix()].link_up(now, port, &mut self.telemetry);
                }
                if let NodeRef::Switch(s2) = peer {
                    if owns_peer {
                        self.switches[s2.ix()].link_up(now, peer_port, &mut self.telemetry);
                    }
                }
            }
            FaultSpec::LinkDegrade {
                rate_factor,
                delay_factor,
                ..
            } => {
                if !owns_primary {
                    return;
                }
                // The port clamps the effective rate at `bw/100`, so rate
                // factors below 0.01 saturate.
                let p = &mut self.switches[s.ix()].ports[port as usize];
                if opening {
                    self.degrade_base_prop[ix] = p.prop;
                    let scaled = Bandwidth::bps((p.bw.as_bps() as f64 * rate_factor) as u64);
                    p.set_drain_bw(scaled);
                    p.prop = TimeDelta::from_ps((p.prop.as_ps() as f64 * delay_factor) as u64);
                } else {
                    let full = p.bw;
                    p.set_drain_bw(full);
                    p.prop = self.degrade_base_prop[ix];
                }
            }
            FaultSpec::RandomLoss { probability, .. } => {
                if !owns_primary {
                    return;
                }
                self.switches[s.ix()].set_loss(port, if opening { probability } else { 0.0 });
            }
            // A stuck PFC pause (§2.3's pause-storm hazard): frames
            // survive, only the scheduler freezes. Downstream pressure
            // then propagates PFC upstream; the watchdog counters in
            // [`Telemetry`] record the episode lengths.
            FaultSpec::StuckPort { .. } => {
                if !owns_primary {
                    return;
                }
                let p = &mut self.switches[s.ix()].ports[port as usize];
                p.paused = opening;
                if opening {
                    if p.paused_since.is_none() {
                        p.paused_since = Some(now);
                    }
                    return;
                }
                if let Some(t0) = p.paused_since.take() {
                    self.telemetry.counters.note_pause_episode(now.since(t0));
                }
                let mut out = SwitchEmit(s, &self.shard, sched);
                self.switches[s.ix()].maybe_start_tx(
                    port,
                    now,
                    &self.cfg,
                    &mut self.pool,
                    &mut out,
                );
            }
        }
    }
}

/// The switches a periodic tick sweeps: the ones this replica owns — all of
/// them without a shard context. `All_INT_Table` refresh and the RoCC step
/// are each switch's own management module (Fig. 8) and touch nothing
/// outside it, and a replica never reads a switch it does not own, so the
/// owners' sweeps together are the one replica's.
fn owned_switches<'a>(
    switches: &'a mut [Switch],
    shard: &'a Option<ShardCtx>,
) -> impl Iterator<Item = &'a mut Switch> {
    switches.iter_mut().filter(move |sw| {
        shard
            .as_ref()
            .is_none_or(|sc| sc.owns(NodeRef::Switch(sw.id)))
    })
}

/// Schedule a frame arrival `prop` in the future at `(peer, peer_port)`,
/// routing it through the engine outbox when `peer` lives in another
/// shard. All cross-shard traffic funnels through here: both switch
/// egress (`Deliver`) and host-NIC egress arrive this way, and every
/// other event class (timers, TxDone, periodic ticks) is local to its
/// owning shard by construction.
#[inline]
fn emit_arrive<T>(
    shard: &Option<ShardCtx>,
    sched: &mut Scheduler<Ev<T>>,
    prop: TimeDelta,
    peer: NodeRef,
    peer_port: u8,
    pkt: Box<Packet>,
) {
    let ev = Ev::Arrive {
        node: peer,
        port: peer_port,
        pkt,
    };
    match shard {
        Some(sc) if !sc.owns(peer) => sched.remote(prop, sc.map.owner_of(peer), ev),
        _ => sched.after(prop, ev),
    }
}

/// The fabric's [`SwitchSink`] for one switch: its actions become events in
/// the scheduler (through the shard context) as the switch emits them.
struct SwitchEmit<'a, T>(SwitchId, &'a Option<ShardCtx>, &'a mut Scheduler<Ev<T>>);

impl<T> SwitchSink for SwitchEmit<'_, T> {
    #[inline(always)]
    fn emit(&mut self, out: SwitchOutput) {
        let SwitchEmit(sw, shard, sched) = self;
        match out {
            SwitchOutput::StartTx { port, tx_after } => {
                let node = NodeRef::Switch(*sw);
                sched.after(tx_after, Ev::TxDone { node, port });
            }
            SwitchOutput::Deliver {
                peer,
                peer_port,
                prop,
                pkt,
            } => emit_arrive(shard, sched, prop, peer, peer_port, pkt),
        }
    }
}

/// If the host NIC `port` is idle and has an eligible frame, begin
/// serializing it (no INT/stamping logic; a host's one port is index 0).
fn start_port_tx<T>(node: NodeRef, port: &mut Port, sched: &mut Scheduler<Ev<T>>) {
    if !port.idle() {
        return;
    }
    let Some(pkt) = port.dequeue() else { return };
    let t = port.tx_time(pkt.size as u64);
    port.in_flight = Some(pkt);
    sched.after(t, Ev::TxDone { node, port: 0 });
}

impl<H: HostLogic> Model for Fabric<H> {
    type Event = Ev<H::Timer>;

    // Not a no-op on a generic: every codegen unit that runs an engine gets
    // its own copy to inline from, wherever a crate's partitioning puts the
    // shared one (PR 25 moved it; `des_incast_allcc_k4` lost 2 % without).
    #[inline]
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>) {
        // Each arm sets the ordering domain [`Fabric::event_domain`] gives
        // its event, so an event's kind is branched on once.
        match ev {
            Ev::Arrive { node, port, pkt } => {
                sched.set_domain(self.node_domain(node));
                match node {
                    NodeRef::Switch(s) => {
                        let mut out = SwitchEmit(s, &self.shard, sched);
                        self.switches[s.ix()].on_arrive(
                            now,
                            port,
                            pkt,
                            &self.cfg,
                            &mut self.telemetry,
                            &mut self.pool,
                            &mut out,
                        );
                    }
                    NodeRef::Host(h) => self.host_arrive(h, pkt, now, sched),
                }
            }
            Ev::TxDone { node, port } => {
                sched.set_domain(self.node_domain(node));
                match node {
                    NodeRef::Switch(s) => {
                        let mut out = SwitchEmit(s, &self.shard, sched);
                        self.switches[s.ix()].on_tx_done(
                            now,
                            port,
                            &self.cfg,
                            &mut self.telemetry,
                            &mut self.pool,
                            &mut out,
                        );
                    }
                    NodeRef::Host(h) => {
                        let p = &mut self.host_ports[h.ix()];
                        let pkt = p.in_flight.take().expect("host TxDone with no frame");
                        p.tx_bytes += pkt.size as u64;
                        let (peer, peer_port, prop) = (p.peer, p.peer_port, p.wire_delay(now));
                        emit_arrive(&self.shard, sched, prop, peer, peer_port, pkt);
                        let p = &mut self.host_ports[h.ix()];
                        start_port_tx(NodeRef::Host(h), p, sched);
                    }
                }
            }
            Ev::HostTimer { host, timer } => {
                sched.set_domain(self.node_domain(NodeRef::Host(host)));
                self.with_host_ctx(host, now, sched, |h, ctx| h.on_timer(ctx, timer));
            }
            Ev::IntRefresh => {
                self.begin_tick(sched);
                for sw in owned_switches(&mut self.switches, &self.shard) {
                    sw.refresh_int_table(now);
                }
                if let Some(d) = self.cfg.int_refresh {
                    sched.after(d, Ev::IntRefresh);
                }
            }
            Ev::RoccTick => {
                self.begin_tick(sched);
                for sw in owned_switches(&mut self.switches, &self.shard) {
                    sw.rocc_step(&self.cfg);
                }
                if let Some(rc) = &self.cfg.rocc {
                    sched.after(rc.period, Ev::RoccTick);
                }
            }
            Ev::Sample => {
                self.begin_tick(sched);
                self.do_sample(now);
                let every = self.telemetry.sample_interval;
                if !every.is_zero() && now + every <= self.telemetry.sample_until {
                    sched.after(every, Ev::Sample);
                }
            }
            Ev::FaultStart { ix } => self.fault_transition(ix, now, true, sched),
            Ev::FaultEnd { ix } => self.fault_transition(ix, now, false, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::telemetry::Probe;
    use crate::units::Bandwidth;
    use fncc_des::engine::Engine;

    /// Minimal transport for fabric tests: on `Start`, send `n` data frames
    /// back-to-back; the receiver ACKs every data frame; the sender counts
    /// ACKs.
    struct MiniHost {
        send_to: Option<HostId>,
        n_packets: u32,
        acks_received: u32,
        data_received: u32,
        last_ack_at: SimTime,
        int_seen: Vec<u64>, // qlen values observed in ACK INT
    }

    impl MiniHost {
        fn idle() -> Self {
            MiniHost {
                send_to: None,
                n_packets: 0,
                acks_received: 0,
                data_received: 0,
                last_ack_at: SimTime::ZERO,
                int_seen: Vec::new(),
            }
        }
        fn sender(dst: HostId, n: u32) -> Self {
            MiniHost {
                send_to: Some(dst),
                n_packets: n,
                ..Self::idle()
            }
        }
    }

    #[derive(Debug, Clone)]
    enum MiniTimer {
        Start,
    }

    impl HostLogic for MiniHost {
        type Timer = MiniTimer;

        fn on_packet(&mut self, ctx: &mut HostCtx<'_, MiniTimer>, pkt: Box<Packet>) {
            match pkt.kind {
                PacketKind::Data => {
                    self.data_received += 1;
                    let (host, base, now) = (ctx.host(), ctx.cfg.ack_base, ctx.now());
                    let ack_seq = pkt.seq + pkt.payload as u64;
                    let ack = ctx.pool().ack(pkt.flow, host, pkt.src, ack_seq, base, now);
                    ctx.send(ack);
                }
                PacketKind::Ack => {
                    self.acks_received += 1;
                    self.last_ack_at = ctx.now();
                    for r in pkt.int() {
                        self.int_seen.push(r.qlen);
                    }
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut HostCtx<'_, MiniTimer>, _t: MiniTimer) {
            let dst = self.send_to.expect("start on non-sender");
            let payload = ctx.cfg.mtu_payload();
            let (host, mtu, now) = (ctx.host(), ctx.cfg.mtu, ctx.now());
            for i in 0..self.n_packets {
                let seq = i as u64 * payload as u64;
                let pkt = ctx
                    .pool()
                    .data(FlowId(0), host, dst, seq, payload, mtu, now);
                ctx.send(pkt);
            }
        }
    }

    fn dumbbell_fabric(cfg: FabricConfig, n: u32) -> Engine<Fabric<MiniHost>> {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let hosts = vec![
            MiniHost::sender(HostId(2), n),
            MiniHost::idle(),
            MiniHost::idle(),
        ];
        let fabric = Fabric::new(&topo, cfg, hosts);
        let mut eng = Engine::new(fabric);
        for (t, ev) in eng.model.startup_events() {
            eng.schedule(t, ev);
        }
        eng.schedule(
            SimTime::ZERO,
            Ev::HostTimer {
                host: HostId(0),
                timer: MiniTimer::Start,
            },
        );
        eng
    }

    /// Two senders blasting `n` frames each at the shared receiver: the sw0
    /// uplink is 2:1 oversubscribed, so queues (and PFC) engage.
    fn contended_dumbbell(cfg: FabricConfig, n: u32) -> Engine<Fabric<MiniHost>> {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let hosts = vec![
            MiniHost::sender(HostId(2), n),
            MiniHost::sender(HostId(2), n),
            MiniHost::idle(),
        ];
        let fabric = Fabric::new(&topo, cfg, hosts);
        let mut eng = Engine::new(fabric);
        for (t, ev) in eng.model.startup_events() {
            eng.schedule(t, ev);
        }
        eng.schedule(
            SimTime::ZERO,
            Ev::HostTimer {
                host: HostId(0),
                timer: MiniTimer::Start,
            },
        );
        eng.schedule(
            SimTime::ZERO,
            Ev::HostTimer {
                host: HostId(1),
                timer: MiniTimer::Start,
            },
        );
        eng
    }

    #[test]
    fn data_flows_end_to_end_and_acks_return() {
        let mut eng = dumbbell_fabric(FabricConfig::paper_default(), 10);
        eng.run_until_idle();
        assert_eq!(eng.model.hosts[2].data_received, 10);
        assert_eq!(eng.model.hosts[0].acks_received, 10);
        assert_eq!(eng.model.telemetry.counters.data_delivered, 10);
        assert_eq!(eng.model.telemetry.counters.acks_delivered, 10);
        assert_eq!(eng.model.telemetry.counters.drops, 0);
    }

    #[test]
    fn first_delivery_takes_store_and_forward_latency() {
        let mut eng = dumbbell_fabric(FabricConfig::paper_default(), 1);
        eng.run_until_idle();
        // One-way data: 4 links * (1518B@100G + 1.5us) ≈ 4*(0.121+1.5) us;
        // ACK back: 4 * (70B@100G + 1.5us). Total ≈ 12.5 us.
        let t = eng.model.hosts[0].last_ack_at.as_us_f64();
        assert!((12.0..13.0).contains(&t), "RTT {t}us out of range");
    }

    #[test]
    fn hpcc_int_collected_on_data_path() {
        let mut cfg = FabricConfig::paper_default();
        cfg.int = crate::config::IntInsertion::OnData;
        let mut eng = dumbbell_fabric(cfg, 40);
        eng.run_until_idle();
        // Receiver copies nothing in MiniHost; but data frames carried INT —
        // check a delivered ACK has no INT (OnData mode) while data had 3.
        // MiniHost stores INT seen in *ACKs*: should be empty.
        assert!(eng.model.hosts[0].int_seen.is_empty());
        // All 40 packets and ACKs delivered despite INT growth.
        assert_eq!(eng.model.hosts[0].acks_received, 40);
    }

    #[test]
    fn fncc_int_collected_on_ack_path_sees_queue() {
        let mut cfg = FabricConfig::paper_default();
        cfg.int = crate::config::IntInsertion::OnAck;
        let mut eng = contended_dumbbell(cfg, 60);
        eng.run_until_idle();
        let ints = &eng.model.hosts[0].int_seen;
        // Each ACK crosses 3 switches → 3 INT records each.
        assert_eq!(ints.len() as u32, 60 * 3);
        // Two senders blast at a 2:1 bottleneck: ACK-path INT must observe a
        // nonzero request-path queue at sw0.
        assert!(
            ints.iter().any(|&q| q > 0),
            "no queue ever observed via ACK INT"
        );
        assert!(ints.iter().all(|&q| q < 32 * 1024 * 1024));
    }

    #[test]
    fn pfc_pauses_host_and_run_is_lossless() {
        let mut cfg = FabricConfig::paper_default();
        cfg.pfc.as_mut().unwrap().threshold = 10_000; // tiny: force pauses
        let mut eng = contended_dumbbell(cfg, 400);
        eng.run_until_idle();
        let m = &eng.model;
        assert_eq!(m.hosts[2].data_received, 800, "lossless under PFC");
        assert!(m.telemetry.counters.pfc_pause_tx > 0, "pauses must trigger");
        assert_eq!(
            m.telemetry.counters.pfc_pause_tx, m.telemetry.counters.pfc_resume_tx,
            "every pause eventually resumes"
        );
        assert_eq!(m.telemetry.counters.drops, 0);
        // Host NICs observed at least one pause.
        assert!(m.host_ports[0].pause_rx + m.host_ports[1].pause_rx > 0);
    }

    #[test]
    fn no_pfc_small_buffer_drops() {
        let mut cfg = FabricConfig::paper_default();
        cfg.pfc = None;
        cfg.buffer_bytes = 20_000;
        let mut eng = contended_dumbbell(cfg, 400);
        eng.run_until_idle();
        assert!(eng.model.telemetry.counters.drops > 0);
        assert!(eng.model.hosts[2].data_received < 800);
    }

    #[test]
    fn sampling_produces_series() {
        let mut eng = dumbbell_fabric(FabricConfig::paper_default(), 200);
        eng.model
            .telemetry
            .enable_sampling(TimeDelta::from_us(1), SimTime::from_us(50));
        let (sw, port) = (SwitchId(0), 2);
        let t = &mut eng.model.telemetry;
        t.watch(Probe::Queue { sw, port }, "sw0-uplink");
        t.watch(Probe::Util { sw, port }, "util");
        eng.schedule(SimTime::ZERO, Ev::Sample);
        eng.run_until_idle();
        let q = eng.model.telemetry.series("sw0-uplink").unwrap();
        assert!(q.len() >= 50, "expected ≥50 samples, got {}", q.len());
        let u = eng.model.telemetry.series("util").unwrap();
        // While 200 MTU frames stream through, utilization must hit ~1.
        assert!(u.max() > 0.9, "peak utilization {}", u.max());
    }

    #[test]
    fn injected_stuck_pause_stalls_and_recovers() {
        let mut cfg = FabricConfig::paper_default();
        // Stick sw1's egress toward sw2 (port 1) for 50 us starting at 5 us.
        cfg.faults.push(FaultSpec::StuckPort {
            switch: 1,
            port: 1,
            at_us: 5,
            duration_us: 50,
        });
        let mut eng = dumbbell_fabric(cfg, 200);
        eng.run_until_idle();
        let m = &eng.model;
        // Everything still delivered after the fault clears.
        assert_eq!(m.hosts[2].data_received, 200);
        assert_eq!(m.telemetry.counters.drops, 0);
        // The watchdog saw the (injected) long pause episode.
        assert_eq!(
            m.telemetry.counters.pause_episodes,
            1 + m.telemetry.counters.pfc_resume_tx
        );
        assert!(
            m.telemetry.counters.pause_time_max >= TimeDelta::from_us(50),
            "max pause {} must cover the injected fault",
            m.telemetry.counters.pause_time_max
        );
        // The stall backed traffic up at sw1 while the fault was active;
        // with the tiny default backlog it must have PFC-paused upstream
        // (pause storm propagation) OR absorbed it in the shared buffer —
        // either way the fault window shows in total pause time.
        assert!(m.telemetry.counters.pause_time_total >= TimeDelta::from_us(50));
    }

    /// A periodic tick sweeps the switches its replica owns, and the
    /// replicas' sweeps together are the one replica's: ownership comes
    /// from the map (an interleaved split here, not the pod partition).
    #[test]
    fn tick_sweeps_owned_switches_only_and_all_of_them() {
        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let map = Arc::new(PartitionMap::from_owners(
            &topo,
            2,
            (0..topo.n_hosts).map(|h| (h % 2) as u16).collect(),
            (0..topo.switches.len()).map(|s| (s % 2) as u16).collect(),
        ));
        let now = SimTime::from_us(3);
        let mut swept = vec![0u32; topo.switches.len()];
        for my in 0..2u16 {
            let hosts = (0..topo.n_hosts).map(|_| MiniHost::idle()).collect();
            // No refresh period: the one tick scheduled below is not renewed.
            let mut fabric = Fabric::new(&topo, FabricConfig::paper_default(), hosts);
            fabric.shard = Some(ShardCtx::new(map.clone(), my));
            let mut eng = Engine::new(fabric);
            eng.schedule(now, Ev::IntRefresh);
            eng.run_until_idle();
            let sc = eng.model.shard.as_ref().unwrap();
            assert_eq!(sc.replica_events, my as u64, "shard 0 counts the tick");
            for sw in &eng.model.switches {
                let owned = sc.owns(NodeRef::Switch(sw.id));
                let want = if owned { now } else { SimTime::ZERO };
                assert!(
                    sw.ports.iter().all(|p| p.int_rec.ts == want),
                    "shard {my}, switch {:?} (owned: {owned})",
                    sw.id
                );
                swept[sw.id.ix()] += owned as u32;
            }
        }
        assert!(
            swept.iter().all(|&n| n == 1),
            "sweeps per switch: {swept:?}"
        );
    }

    #[test]
    fn deterministic_event_counts_across_runs() {
        let run = || {
            let mut eng = dumbbell_fabric(FabricConfig::paper_default(), 100);
            eng.run_until_idle();
            (eng.events_processed(), eng.now())
        };
        assert_eq!(run(), run());
    }
}
