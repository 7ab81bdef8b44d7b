//! The switch data plane (Fig. 8): parser, ingress accounting + PFC,
//! routing, RED/ECN, `All_INT_Table` management and INT insertion
//! (Algorithm 1), and the RoCC PI fair-rate controller.

use crate::config::{FabricConfig, IntInsertion};
use crate::ids::{HostId, NodeRef, SwitchId};
use crate::packet::{IntRecord, Packet, PacketKind};
use crate::pool::PacketPool;
use crate::port::Port;
use crate::routing::{flow_hash, without_ports, CompiledRoutes, RoutingTable};
use crate::telemetry::Telemetry;
use crate::topology::SwitchSpec;
use crate::units::PFC_FRAME_BYTES;
use fncc_des::rng::DetRng;
use fncc_des::time::SimTime;
use fncc_obs::TraceEvent;
use std::sync::Arc;

/// Actions a switch asks the fabric to perform while handling an event
/// (the fabric owns event scheduling; the switch stays scheduler-agnostic
/// and therefore easy to unit-test). It hands each one to a [`SwitchSink`].
#[derive(Debug)]
pub enum SwitchOutput {
    /// Start serializing on `port`; `TxDone` is due after `tx_after` (the
    /// frame is in `ports[port].in_flight`). The serialization time rides
    /// along so the consumer never has to reload switch state.
    StartTx {
        /// Egress port index.
        port: u8,
        /// The frame's serialization time at this port's rate.
        tx_after: fncc_des::TimeDelta,
    },
    /// Deliver `pkt` to `peer` after `prop` (the egress port's propagation
    /// delay, copied here for the same reason).
    Deliver {
        /// Receiving node.
        peer: NodeRef,
        /// Receiving port index.
        peer_port: u8,
        /// One-way propagation delay of the link.
        prop: fncc_des::TimeDelta,
        /// The frame.
        pkt: Box<Packet>,
    },
}

/// Where a switch's [`SwitchOutput`]s go, one at a time and in order. The
/// fabric's sink turns each into a scheduled event on the spot; a
/// `Vec<SwitchOutput>` collects them, for tests and standalone drivers.
pub trait SwitchSink {
    /// Take the switch's next action.
    fn emit(&mut self, out: SwitchOutput);
}

impl SwitchSink for Vec<SwitchOutput> {
    #[inline]
    fn emit(&mut self, out: SwitchOutput) {
        self.push(out);
    }
}

/// A live switch.
pub struct Switch {
    /// This switch's id.
    pub id: SwitchId,
    /// Egress ports.
    pub ports: Vec<Port>,
    /// Forwarding table as constructed, shared with the topology (kept to
    /// recompile around dead ports and to tell a reroute; forwarding uses
    /// the compiled copy below, so the field is private to keep the two
    /// from diverging).
    route: Arc<RoutingTable>,
    /// Digit-compiled forwarding table (hot-path lookups; same results).
    /// A clone shares its tables, so the replicas of a sharded run forward
    /// through one copy until a link fault recompiles a switch's own.
    croute: CompiledRoutes,
    /// Total buffered bytes (shared-buffer occupancy). Per-port PFC
    /// accounting, the `All_INT_Table` and RoCC state live on [`Port`].
    pub buffered: u64,
    /// ECN marking randomness.
    ecn_rng: DetRng,
    /// Per-port link-down state; `n_dead` gates every fault-path branch so
    /// a healthy run costs one integer compare per forwarded frame.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    n_dead: usize,
    /// Per-egress-port random-loss probability (0 = off), active only
    /// inside a `RandomLoss` fault window.
    loss_prob: Vec<f64>,
    /// Number of ports with nonzero `loss_prob`.
    n_lossy: usize,
    /// Random-loss drawing. Seeded from the fabric seed on a stream
    /// distinct from ECN marking; drawn from only inside loss windows, so
    /// fault-free runs consume an identical random sequence to before.
    loss_rng: DetRng,
}

impl Switch {
    /// Instantiate from a topology description.
    pub fn new(id: SwitchId, spec: &SwitchSpec, cfg: &FabricConfig) -> Switch {
        Switch::with_routes(id, spec, cfg, CompiledRoutes::compile(&spec.route))
    }

    /// [`Switch::new`] around an already compiled `spec.route`.
    pub fn with_routes(
        id: SwitchId,
        spec: &SwitchSpec,
        cfg: &FabricConfig,
        croute: CompiledRoutes,
    ) -> Switch {
        let ports: Vec<Port> = spec.ports.iter().map(Port::from_spec).collect();
        let n_ports = ports.len();
        Switch {
            id,
            ports,
            croute,
            route: spec.route.clone(),
            buffered: 0,
            ecn_rng: DetRng::new(cfg.seed, 0x0057_17C4 ^ id.0 as u64),
            dead: vec![false; n_ports],
            n_dead: 0,
            loss_prob: vec![0.0; n_ports],
            n_lossy: 0,
            loss_rng: DetRng::new(cfg.seed, 0x00FA_17D5 ^ id.0 as u64),
        }
    }

    /// True while egress `port`'s link is down.
    #[cfg(test)]
    fn port_dead(&self, port: u8) -> bool {
        self.dead[port as usize]
    }

    /// Rebuild the compiled forwarding table from the pristine route minus
    /// the currently-dead ports.
    fn recompile_routes(&mut self) {
        self.croute = if self.n_dead == 0 {
            CompiledRoutes::compile(&self.route)
        } else {
            CompiledRoutes::compile(&without_ports(&self.route, &self.dead))
        };
    }

    /// The link on egress `port` fails: destroy every queued frame (the
    /// one mid-serialization is discarded at its `TxDone`), reset the
    /// port's PFC state (the peer is unreachable, so no pause can ever be
    /// released over this wire again), and recompile routing around the
    /// port. Frames already propagating still arrive at the peer — the
    /// fabric fails both directions of a link, so the peer tears its
    /// reverse port down the same way.
    pub fn link_down(
        &mut self,
        now: SimTime,
        port: u8,
        cfg: &FabricConfig,
        telem: &mut Telemetry,
        pool: &mut PacketPool,
        out: &mut impl SwitchSink,
    ) {
        let pi = port as usize;
        if self.dead[pi] {
            return;
        }
        self.dead[pi] = true;
        self.n_dead += 1;
        if telem.rec.trace.enabled() {
            telem.rec.trace.record(TraceEvent::LinkDown {
                t_ps: now.as_ps(),
                sw: self.id.0,
                port,
            });
        }
        for pkt in self.ports[pi].purge_queues() {
            if !pkt.kind.is_control() {
                let ip = pkt.in_port as usize;
                self.ports[ip].ingress_bytes -= pkt.accounted as u64;
                self.buffered -= pkt.accounted as u64;
                self.note_fault_drop(now, port, &pkt, telem);
            }
            pool.put(pkt);
        }
        let p = &mut self.ports[pi];
        p.paused = false;
        if let Some(t0) = p.paused_since.take() {
            telem.counters.note_pause_episode(now.since(t0));
        }
        p.upstream_paused = false;
        self.recompile_routes();
        // The purge may have drained other ingress ports below the PFC
        // resume threshold; issue the pending resumes now rather than
        // waiting for an unrelated departure.
        for ip in 0..self.ports.len() {
            if !self.dead[ip] {
                self.maybe_resume_upstream(ip, now, cfg, telem, pool, out);
            }
        }
    }

    /// A previously-downed link on egress `port` is restored: the port
    /// rejoins routing. Queues are empty (nothing routed here while dead),
    /// so there is nothing else to rebuild.
    pub fn link_up(&mut self, now: SimTime, port: u8, telem: &mut Telemetry) {
        let pi = port as usize;
        if !self.dead[pi] {
            return;
        }
        self.dead[pi] = false;
        self.n_dead -= 1;
        if telem.rec.trace.enabled() {
            telem.rec.trace.record(TraceEvent::LinkUp {
                t_ps: now.as_ps(),
                sw: self.id.0,
                port,
            });
        }
        self.recompile_routes();
    }

    /// Set egress `port`'s random-loss probability (0 clears it). Only
    /// called at `RandomLoss` fault-window boundaries.
    pub fn set_loss(&mut self, port: u8, prob: f64) {
        let pi = port as usize;
        if self.loss_prob[pi] > 0.0 {
            self.n_lossy -= 1;
        }
        if prob > 0.0 {
            self.n_lossy += 1;
        }
        self.loss_prob[pi] = prob;
    }

    /// Periodic `All_INT_Table` refresh (Fig. 8 "Management" module).
    pub fn refresh_int_table(&mut self, now: SimTime) {
        for p in &mut self.ports {
            p.int_rec = p.int_record(now);
        }
    }

    /// One RoCC PI-controller step over every port.
    pub fn rocc_step(&mut self, cfg: &FabricConfig) {
        let Some(rc) = &cfg.rocc else { return };
        for p in &mut self.ports {
            let q = p.signal_qlen() as f64;
            let r = p.rocc_rate - rc.gain_p * (q - rc.qref) - rc.gain_d * (q - p.rocc_prev_q);
            p.rocc_rate = r.clamp(rc.min_rate, p.drain_bw().as_f64());
            p.rocc_prev_q = q;
        }
    }

    /// Handle an arriving frame on `in_port`. Control frames flip the pause
    /// state; everything else is routed and queued. Emits follow-up actions
    /// into `out`; consumed frames (PFC, drops) return to `pool`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_arrive(
        &mut self,
        now: SimTime,
        in_port: u8,
        mut pkt: Box<Packet>,
        cfg: &FabricConfig,
        telem: &mut Telemetry,
        pool: &mut PacketPool,
        out: &mut impl SwitchSink,
    ) {
        match pkt.kind {
            PacketKind::PfcPause | PacketKind::PfcResume => {
                let pause = pkt.kind == PacketKind::PfcPause;
                let node = NodeRef::Switch(self.id);
                self.ports[in_port as usize].on_pfc_rx(pause, now, node, in_port, telem);
                pool.put(pkt);
                if !pause {
                    self.maybe_start_tx(in_port, now, cfg, pool, out);
                }
                return;
            }
            _ => {}
        }

        // Shared-buffer admission.
        if self.buffered + pkt.size as u64 > cfg.buffer_bytes {
            telem.counters.drops += 1;
            if telem.rec.trace.enabled() {
                telem.rec.trace.record(TraceEvent::Drop {
                    t_ps: now.as_ps(),
                    sw: self.id.0,
                    port: in_port,
                    flow: pkt.flow.0,
                    size: pkt.size,
                });
            }
            pool.put(pkt);
            return;
        }

        // Port input engine (Algorithm 1 lines 2–4): remember the ingress
        // port — used for PFC accounting on all frames and for the
        // All_INT_Table lookup on ACKs. The accounted size is pinned here
        // because INT insertion grows the frame before departure.
        pkt.in_port = in_port;
        pkt.accounted = pkt.size;
        self.ports[in_port as usize].ingress_bytes += pkt.size as u64;
        self.buffered += pkt.size as u64;

        // Ingress pipeline: routing. The healthy path is a single compiled
        // lookup; with dead links present the lookup may fail (severed
        // destination) and a successful one is compared against the
        // pristine route to count rerouted flows.
        let h = flow_hash(pkt.src, pkt.dst, pkt.flow);
        let out_port = if self.n_dead == 0 {
            self.croute.egress(pkt.dst, h)
        } else {
            match self.croute.try_egress(pkt.dst, h) {
                Some(op) => {
                    if !pkt.kind.is_control() && op != self.route.egress(pkt.dst, h) {
                        telem.note_rerouted(pkt.flow);
                    }
                    op
                }
                None => {
                    self.fault_drop(now, in_port, pkt, telem, pool);
                    return;
                }
            }
        };
        debug_assert_ne!(out_port, in_port, "routing loop at {:?}", self.id);

        // Random-loss fault window: frames bound for a lossy egress drop
        // with the configured probability, from a seed-derived stream.
        if self.n_lossy > 0
            && !pkt.kind.is_control()
            && self.loss_prob[out_port as usize] > 0.0
            && self.loss_rng.chance(self.loss_prob[out_port as usize])
        {
            self.fault_drop(now, out_port, pkt, telem, pool);
            return;
        }

        // RED/ECN marking on data frames (DCQCN), against the egress queue
        // depth seen at enqueue.
        if let Some(ecn) = cfg.ecn.as_ref().filter(|_| pkt.kind == PacketKind::Data) {
            let q = self.ports[out_port as usize].signal_qlen();
            let p_mark = ecn.mark_probability(q);
            if p_mark > 0.0 && self.ecn_rng.chance(p_mark) {
                pkt.ecn = true;
                telem.counters.ecn_marks += 1;
                if telem.rec.trace.enabled() {
                    telem.rec.trace.record(TraceEvent::EcnMark {
                        t_ps: now.as_ps(),
                        sw: self.id.0,
                        port: out_port,
                        flow: pkt.flow.0,
                        queue_bytes: q,
                    });
                }
            }
        }

        let (flow, size) = (pkt.flow.0, pkt.size);
        self.ports[out_port as usize].enqueue(pkt);
        if telem.rec.trace.enabled() {
            telem.rec.trace.record(TraceEvent::Enqueue {
                t_ps: now.as_ps(),
                sw: self.id.0,
                port: out_port,
                flow,
                size,
                queue_bytes: self.ports[out_port as usize].queue_bytes,
            });
        }

        // PFC: pause the upstream once this ingress crosses the threshold.
        if cfg.pfc.is_some_and(|pfc| {
            !self.ports[in_port as usize].upstream_paused
                && self.ports[in_port as usize].ingress_bytes > pfc.threshold
        }) {
            self.ports[in_port as usize].upstream_paused = true;
            self.ports[in_port as usize].pause_tx += 1;
            telem.counters.pfc_pause_tx += 1;
            if telem.rec.trace.enabled() {
                telem.rec.trace.record(TraceEvent::PfcPause {
                    t_ps: now.as_ps(),
                    node: self.id.0,
                    port: in_port,
                    tx: true,
                    at_host: false,
                });
            }
            let frame = pool.pfc(PacketKind::PfcPause, PFC_FRAME_BYTES, now);
            self.ports[in_port as usize].enqueue_ctrl(frame);
            self.maybe_start_tx(in_port, now, cfg, pool, out);
        }

        self.maybe_start_tx(out_port, now, cfg, pool, out);
    }

    /// Destroy an admitted frame because of a link fault (severed
    /// destination or random loss): release the ingress accounting taken
    /// at admission, attribute the drop to the fault, recycle the frame.
    fn fault_drop(
        &mut self,
        now: SimTime,
        port: u8,
        pkt: Box<Packet>,
        telem: &mut Telemetry,
        pool: &mut PacketPool,
    ) {
        self.ports[pkt.in_port as usize].ingress_bytes -= pkt.size as u64;
        self.buffered -= pkt.size as u64;
        self.note_fault_drop(now, port, &pkt, telem);
        pool.put(pkt);
    }

    /// Count a frame lost to a link fault at egress `port` and trace it.
    /// Buffer accounting is the caller's: each drop site releases a
    /// different share.
    fn note_fault_drop(&self, now: SimTime, port: u8, pkt: &Packet, telem: &mut Telemetry) {
        telem.counters.fault_drops += 1;
        if telem.rec.trace.enabled() {
            telem.rec.trace.record(TraceEvent::FaultDrop {
                t_ps: now.as_ps(),
                sw: self.id.0,
                port,
                flow: pkt.flow.0,
                size: pkt.size,
            });
        }
    }

    /// PFC hysteresis: if ingress `ip` holds its upstream paused and has
    /// drained below the resume threshold, send the XON.
    fn maybe_resume_upstream(
        &mut self,
        ip: usize,
        now: SimTime,
        cfg: &FabricConfig,
        telem: &mut Telemetry,
        pool: &mut PacketPool,
        out: &mut impl SwitchSink,
    ) {
        let Some(pfc) = cfg.pfc else { return };
        if self.ports[ip].upstream_paused
            && self.ports[ip].ingress_bytes + pfc.resume_offset <= pfc.threshold
        {
            self.ports[ip].upstream_paused = false;
            self.ports[ip].resume_tx += 1;
            telem.counters.pfc_resume_tx += 1;
            if telem.rec.trace.enabled() {
                telem.rec.trace.record(TraceEvent::PfcResume {
                    t_ps: now.as_ps(),
                    node: self.id.0,
                    port: ip as u8,
                    tx: true,
                    at_host: false,
                });
            }
            let frame = pool.pfc(PacketKind::PfcResume, PFC_FRAME_BYTES, now);
            self.ports[ip].enqueue_ctrl(frame);
            self.maybe_start_tx(ip as u8, now, cfg, pool, out);
        }
    }

    /// A frame finished serializing on `port`: deliver it to the peer,
    /// release buffer accounting, maybe un-pause the upstream, start the
    /// next frame.
    pub fn on_tx_done(
        &mut self,
        now: SimTime,
        port: u8,
        cfg: &FabricConfig,
        telem: &mut Telemetry,
        pool: &mut PacketPool,
        out: &mut impl SwitchSink,
    ) {
        let pkt = self.ports[port as usize]
            .in_flight
            .take()
            .expect("TxDone with empty in_flight");

        if !pkt.kind.is_control() {
            self.ports[port as usize].tx_bytes += pkt.size as u64;
            // The frame was dequeued when serialization began; its departure
            // is recorded here, once it is fully on the wire.
            if telem.rec.trace.enabled() {
                telem.rec.trace.record(TraceEvent::Dequeue {
                    t_ps: now.as_ps(),
                    sw: self.id.0,
                    port,
                    flow: pkt.flow.0,
                    size: pkt.size,
                    queue_bytes: self.ports[port as usize].queue_bytes,
                });
            }
            let ip = pkt.in_port as usize;
            self.ports[ip].ingress_bytes -= pkt.accounted as u64;
            self.buffered -= pkt.accounted as u64;
            // PFC hysteresis: un-pause the upstream once drained enough.
            self.maybe_resume_upstream(ip, now, cfg, telem, pool, out);
        }

        // The link died while this frame was serializing: it never reaches
        // the peer. (Accounting above already released its buffer share.)
        if self.n_dead > 0 && self.dead[port as usize] {
            if !pkt.kind.is_control() {
                self.note_fault_drop(now, port, &pkt, telem);
            }
            pool.put(pkt);
            self.maybe_start_tx(port, now, cfg, pool, out);
            return;
        }

        let p = &mut self.ports[port as usize];
        out.emit(SwitchOutput::Deliver {
            peer: p.peer,
            peer_port: p.peer_port,
            prop: p.wire_delay(now),
            pkt,
        });
        self.maybe_start_tx(port, now, cfg, pool, out);
    }

    /// If `port` is idle and has an eligible frame, run the output engine
    /// (Algorithm 1 lines 6–10: INT insertion; RoCC stamping) and start
    /// serialization.
    pub fn maybe_start_tx(
        &mut self,
        port: u8,
        now: SimTime,
        cfg: &FabricConfig,
        pool: &mut PacketPool,
        out: &mut impl SwitchSink,
    ) {
        if !self.ports[port as usize].idle() {
            return;
        }
        let Some(mut pkt) = self.ports[port as usize].dequeue() else {
            return;
        };
        self.output_engine(&mut pkt, port, now, cfg, pool);
        let p = &mut self.ports[port as usize];
        let tx_after = p.tx_time(pkt.size as u64);
        p.in_flight = Some(pkt);
        out.emit(SwitchOutput::StartTx { port, tx_after });
    }

    /// The output engine: INT insertion per the configured mode (a frame's
    /// first record takes its stack from `pool`), RoCC rate stamping.
    fn output_engine(
        &mut self,
        pkt: &mut Packet,
        out_port: u8,
        now: SimTime,
        cfg: &FabricConfig,
        pool: &mut PacketPool,
    ) {
        match (cfg.int, pkt.kind) {
            // HPCC: every data frame picks up the INT of the egress port it
            // is leaving through.
            (IntInsertion::OnData, PacketKind::Data) => {
                let rec = self.read_int(out_port, now, cfg);
                pkt.push_int(rec, pool);
                pkt.path_xor ^= (self.id.0 as u16) & 0x0FFF;
            }
            // FNCC (Algorithm 1 lines 7–9): every ACK picks up
            // `All_INT_Table[ack.input_port]` — the request-path egress
            // queue the corresponding data packets flow through.
            (IntInsertion::OnAck, PacketKind::Ack) => {
                let rec = self.read_int(pkt.in_port, now, cfg);
                pkt.push_int(rec, pool);
                // Fig. 7 pathID: XOR of all switch ids along the path.
                pkt.path_xor ^= (self.id.0 as u16) & 0x0FFF;
            }
            _ => {}
        }
        if cfg.rocc.is_some() && pkt.kind == PacketKind::Data {
            pkt.rocc_rate = pkt.rocc_rate.min(self.ports[out_port as usize].rocc_rate);
        }
    }

    /// Read a port's INT record: live, or from the periodic table.
    #[inline]
    fn read_int(&self, port: u8, now: SimTime, cfg: &FabricConfig) -> IntRecord {
        let p = &self.ports[port as usize];
        if cfg.int_refresh.is_some() {
            p.int_rec
        } else {
            p.int_record(now)
        }
    }
}

/// Convenience for tests and analysis: the egress port a switch would pick.
pub fn egress_for(sw: &Switch, src: HostId, dst: HostId, flow: crate::ids::FlowId) -> u8 {
    sw.croute.egress(dst, flow_hash(src, dst, flow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::topology::Topology;
    use crate::units::Bandwidth;
    use fncc_des::time::TimeDelta;

    fn test_cfg() -> FabricConfig {
        FabricConfig::paper_default()
    }

    /// A 2-sender dumbbell's first switch: ports 0,1 = hosts; port 2 = uplink.
    fn sw0() -> Switch {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_us(1));
        Switch::new(SwitchId(0), &topo.switches[0], &test_cfg())
    }

    fn data(flow: u32, src: u32, dst: u32, size: u32) -> Box<Packet> {
        PacketPool::new().data(
            FlowId(flow),
            HostId(src),
            HostId(dst),
            0,
            size - 62,
            size,
            SimTime::ZERO,
        )
    }

    fn drain_tx(
        sw: &mut Switch,
        port: u8,
        cfg: &FabricConfig,
        telem: &mut Telemetry,
    ) -> Vec<Packet> {
        // Repeatedly complete transmissions on `port` until it goes idle,
        // collecting delivered frames.
        let mut pool = PacketPool::new();
        let mut delivered = Vec::new();
        loop {
            if sw.ports[port as usize].idle() {
                break;
            }
            let mut out = Vec::new();
            sw.on_tx_done(SimTime::from_us(1), port, cfg, telem, &mut pool, &mut out);
            for o in out {
                if let SwitchOutput::Deliver { pkt, .. } = o {
                    delivered.push(*pkt);
                }
            }
        }
        delivered
    }

    #[test]
    fn routes_data_to_uplink_and_starts_tx() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [SwitchOutput::StartTx { port: 2, .. }]
        ));
        assert!(sw.ports[2].in_flight.is_some());
        assert_eq!(sw.ports[0].ingress_bytes, 1000);
        assert_eq!(sw.buffered, 1000);
    }

    #[test]
    fn tx_done_delivers_to_peer_and_releases_buffer() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        out.clear();
        sw.on_tx_done(
            SimTime::from_us(1),
            2,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        match &out[0] {
            SwitchOutput::Deliver { peer, pkt, .. } => {
                assert!(matches!(peer, NodeRef::Switch(SwitchId(1))));
                assert_eq!(pkt.size, 1000);
            }
            other => panic!("expected Deliver, got {other:?}"),
        }
        assert_eq!(sw.ports[0].ingress_bytes, 0);
        assert_eq!(sw.buffered, 0);
        assert_eq!(sw.ports[2].tx_bytes, 1000);
    }

    #[test]
    fn hpcc_mode_appends_int_to_data() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.int = IntInsertion::OnData;
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::from_us(3),
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        let pkt = sw.ports[2].in_flight.as_ref().unwrap();
        assert_eq!(pkt.int().len(), 1);
        assert_eq!(pkt.size, 1008, "INT grows the frame");
        let rec = pkt.int()[0];
        assert_eq!(rec.ts, SimTime::from_us(3));
        assert_eq!(rec.qlen, 0, "dequeued immediately, queue empty behind it");
    }

    #[test]
    fn fncc_mode_appends_request_path_int_to_ack() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.int = IntInsertion::OnAck;
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();

        // Build request-path state: two data frames head out port 2; one is
        // in flight, one queued (queue_bytes = 1000).
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert_eq!(sw.ports[2].queue_bytes, 1000);

        // An ACK for flow 0 arrives on port 2 (the data egress) heading to
        // host 0: it must pick up port 2's INT (the request-path queue).
        let ack = pool.ack(FlowId(0), HostId(2), HostId(0), 1000, 70, SimTime::ZERO);
        out.clear();
        sw.on_arrive(
            SimTime::from_us(5),
            2,
            ack,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        let pkt = sw.ports[0].in_flight.as_ref().unwrap();
        assert_eq!(pkt.kind, PacketKind::Ack);
        assert_eq!(pkt.int().len(), 1);
        let rec = pkt.int()[0];
        assert_eq!(
            rec.qlen, 1000,
            "ACK carries the data-path egress queue depth"
        );
        assert_eq!(pkt.size, 78);
        // Data frames in FNCC mode carry no INT.
        let d = sw.ports[2].in_flight.as_ref().unwrap();
        assert_eq!(d.int().len(), 0);
    }

    #[test]
    fn periodic_int_table_lags_live_state() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.int = IntInsertion::OnAck;
        cfg.int_refresh = Some(TimeDelta::from_us(10));
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();

        // Refresh at t=0 with empty queues, then build a queue.
        sw.refresh_int_table(SimTime::ZERO);
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );

        let ack = pool.ack(FlowId(0), HostId(2), HostId(0), 0, 70, SimTime::ZERO);
        out.clear();
        sw.on_arrive(
            SimTime::from_us(5),
            2,
            ack,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        let pkt = sw.ports[0].in_flight.as_ref().unwrap();
        assert_eq!(pkt.int()[0].qlen, 0, "stale table value");

        // After a refresh, a second ACK sees the queue.
        sw.refresh_int_table(SimTime::from_us(10));
        let ack2 = pool.ack(FlowId(0), HostId(2), HostId(0), 0, 70, SimTime::ZERO);
        out.clear();
        // port 0 is busy with ack1; drain it first.
        drain_tx(&mut sw, 0, &cfg, &mut telem);
        sw.on_arrive(
            SimTime::from_us(11),
            2,
            ack2,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        let pkt2 = sw.ports[0].in_flight.as_ref().unwrap();
        assert_eq!(pkt2.int()[0].qlen, 1000);
    }

    #[test]
    fn pfc_pause_sent_when_ingress_crosses_threshold() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.pfc.as_mut().unwrap().threshold = 2500; // tiny threshold for the test
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        // Three 1000B frames from host 0: after the third, ingress 0 holds
        // 3000 > 2500 (the first is in flight but still accounted).
        for _ in 0..3 {
            sw.on_arrive(
                SimTime::ZERO,
                0,
                data(0, 0, 2, 1000),
                &cfg,
                &mut telem,
                &mut pool,
                &mut out,
            );
        }
        assert!(sw.ports[0].upstream_paused);
        assert_eq!(sw.ports[0].pause_tx, 1);
        assert_eq!(telem.counters.pfc_pause_tx, 1);
        // The pause frame is in flight on port 0 (control priority).
        assert_eq!(
            sw.ports[0].in_flight.as_ref().unwrap().kind,
            PacketKind::PfcPause
        );
        // No duplicate pause while already paused.
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert_eq!(sw.ports[0].pause_tx, 1);
    }

    #[test]
    fn pfc_resume_after_draining() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.pfc = Some(crate::config::PfcConfig {
            threshold: 1500,
            resume_offset: 500,
        });
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            sw.on_arrive(
                SimTime::ZERO,
                0,
                data(0, 0, 2, 1000),
                &cfg,
                &mut telem,
                &mut pool,
                &mut out,
            );
        }
        assert!(sw.ports[0].upstream_paused);
        // Drain the uplink: after both data frames leave, ingress drops to 0
        // → resume emitted.
        drain_tx(&mut sw, 2, &cfg, &mut telem);
        assert!(!sw.ports[0].upstream_paused);
        assert_eq!(sw.ports[0].resume_tx, 1);
        assert_eq!(telem.counters.pfc_resume_tx, 1);
    }

    #[test]
    fn receiving_pause_stops_data_not_control() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        // Pause arrives on the uplink (port 2).
        sw.on_arrive(
            SimTime::ZERO,
            2,
            pool.pfc(PacketKind::PfcPause, 64, SimTime::ZERO),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(sw.ports[2].paused);
        assert_eq!(sw.ports[2].pause_rx, 1);
        // Data for the uplink queues but does not start.
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(sw.ports[2].idle());
        assert_eq!(sw.ports[2].queue_bytes, 1000);
        // Resume restarts it.
        out.clear();
        sw.on_arrive(
            SimTime::ZERO,
            2,
            pool.pfc(PacketKind::PfcResume, 64, SimTime::ZERO),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(!sw.ports[2].paused);
        assert!(sw.ports[2].in_flight.is_some());
    }

    #[test]
    fn buffer_exhaustion_drops_without_pfc() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.pfc = None;
        cfg.buffer_bytes = 2048;
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert_eq!(telem.counters.drops, 1);
        assert_eq!(sw.buffered, 2000);
    }

    #[test]
    fn ecn_marks_above_kmax() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.ecn = Some(crate::config::EcnConfig {
            kmin: 0,
            kmax: 1,
            pmax: 1.0,
        });
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        // First frame: queue empty at enqueue, then it dequeues immediately.
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        // Second frame sees 0 queued (first is in flight, not queued)… build
        // real queue with a third.
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(telem.counters.ecn_marks >= 1);
    }

    #[test]
    fn rocc_controller_lowers_rate_under_queue() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.rocc = Some(crate::config::RoccSwitchConfig::default_for(
            Bandwidth::gbps(100),
        ));
        let line = 100e9;
        assert_eq!(sw.ports[2].rocc_rate, line);
        // Simulate a standing queue above qref.
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        for _ in 0..200 {
            sw.on_arrive(
                SimTime::ZERO,
                0,
                data(0, 0, 2, 1400),
                &cfg,
                &mut telem,
                &mut pool,
                &mut out,
            );
        }
        for _ in 0..10 {
            sw.rocc_step(&cfg);
        }
        assert!(
            sw.ports[2].rocc_rate < line,
            "rate should fall under congestion"
        );
        // Completing the in-flight frame starts the next one, which picks up
        // the lowered stamp at its output-engine pass.
        out.clear();
        sw.on_tx_done(
            SimTime::from_us(1),
            2,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        let pkt = sw.ports[2].in_flight.as_ref().unwrap();
        assert!(pkt.rocc_rate < line);
    }

    #[test]
    fn rocc_rate_recovers_when_queue_drains() {
        let mut sw = sw0();
        let mut cfg = test_cfg();
        cfg.rocc = Some(crate::config::RoccSwitchConfig::default_for(
            Bandwidth::gbps(100),
        ));
        sw.ports[2].rocc_rate = 10e9;
        // Queue empty → integral term pushes the rate back up.
        for _ in 0..10_000 {
            sw.rocc_step(&cfg);
        }
        assert!(
            sw.ports[2].rocc_rate > 99e9,
            "rate {} should recover",
            sw.ports[2].rocc_rate
        );
    }

    #[test]
    fn path_xor_accumulates_switch_ids_on_ack() {
        let mut cfg = test_cfg();
        cfg.int = IntInsertion::OnAck;
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_us(1));
        // Pass one ACK through sw1 then sw0 (reverse path order).
        let mut xor_acc = 0u16;
        let mut ack = pool.ack(FlowId(0), HostId(2), HostId(0), 0, 70, SimTime::ZERO);
        for swid in [1u32, 0] {
            let mut sw = Switch::new(SwitchId(swid), &topo.switches[swid as usize], &cfg);
            let mut out = Vec::new();
            let in_port = if swid == 1 { 1 } else { 2 };
            sw.on_arrive(
                SimTime::from_us(1),
                in_port,
                ack,
                &cfg,
                &mut telem,
                &mut pool,
                &mut out,
            );
            ack = sw.ports[0].in_flight.take().expect("ack in flight");
            xor_acc ^= swid as u16;
            assert_eq!(ack.path_xor, xor_acc, "after sw{swid}");
        }
        assert_eq!(ack.int().len(), 2);
    }

    #[test]
    fn link_down_purges_queue_and_discards_in_flight_at_tx_done() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        // Two frames: one in flight on the uplink, one queued behind it.
        for _ in 0..2 {
            sw.on_arrive(
                SimTime::ZERO,
                0,
                data(0, 0, 2, 1000),
                &cfg,
                &mut telem,
                &mut pool,
                &mut out,
            );
        }
        assert_eq!(sw.buffered, 2000);
        out.clear();
        sw.link_down(
            SimTime::from_us(1),
            2,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(sw.port_dead(2));
        // The queued frame is destroyed immediately, accounting released.
        assert_eq!(telem.counters.fault_drops, 1);
        assert_eq!(sw.buffered, 1000, "in-flight frame still accounted");
        assert_eq!(sw.ports[2].queue_bytes, 0);
        // Its TxDone discards instead of delivering.
        out.clear();
        sw.on_tx_done(
            SimTime::from_us(2),
            2,
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(
            !out.iter()
                .any(|o| matches!(o, SwitchOutput::Deliver { .. })),
            "dead port must not deliver"
        );
        assert_eq!(telem.counters.fault_drops, 2);
        assert_eq!(sw.buffered, 0);
        assert_eq!(sw.ports[0].ingress_bytes, 0);
    }

    #[test]
    fn link_down_severs_destination_and_drops_arrivals() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.link_down(SimTime::ZERO, 2, &cfg, &mut telem, &mut pool, &mut out);
        // Host 2 sits behind the dead uplink: the frame is destroyed, not
        // routed (and `egress` would have panicked on Unreachable).
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert_eq!(telem.counters.fault_drops, 1);
        assert_eq!(sw.buffered, 0, "admission accounting rolled back");
        assert_eq!(sw.ports[0].ingress_bytes, 0);
        // Local delivery (host 1, port 1) still works.
        out.clear();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(1, 0, 1, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [SwitchOutput::StartTx { port: 1, .. }]
        ));
    }

    #[test]
    fn link_up_restores_routing() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.link_down(SimTime::ZERO, 2, &cfg, &mut telem, &mut pool, &mut out);
        sw.link_up(SimTime::from_us(1), 2, &mut telem);
        assert!(!sw.port_dead(2));
        sw.on_arrive(
            SimTime::from_us(2),
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [SwitchOutput::StartTx { port: 2, .. }]
        ));
        assert_eq!(telem.counters.fault_drops, 0);
    }

    #[test]
    fn ecmp_reroutes_around_dead_uplink_and_counts_flows() {
        // Fat-tree k=4 ToR 0: ports 0,1 = hosts, ports 2,3 = ECMP uplinks.
        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_us(1));
        let cfg = test_cfg();
        let mut sw = Switch::new(SwitchId(0), &topo.switches[0], &cfg);
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        // Find a flow that pristine-routes via port 2.
        let flow = (0..64)
            .map(FlowId)
            .find(|f| egress_for(&sw, HostId(0), HostId(15), *f) == 2)
            .expect("some flow hashes onto port 2");
        sw.link_down(SimTime::ZERO, 2, &cfg, &mut telem, &mut pool, &mut out);
        let mut pkt = data(flow.0, 0, 15, 1000);
        pkt.flow = flow;
        sw.on_arrive(SimTime::ZERO, 0, pkt, &cfg, &mut telem, &mut pool, &mut out);
        assert!(
            matches!(out.as_slice(), [SwitchOutput::StartTx { port: 3, .. }]),
            "survivor uplink takes over: {out:?}"
        );
        assert_eq!(telem.rerouted_flows(), 1);
        // Second frame of the same flow does not recount.
        let mut pkt = data(flow.0, 0, 15, 1000);
        pkt.flow = flow;
        sw.on_arrive(SimTime::ZERO, 0, pkt, &cfg, &mut telem, &mut pool, &mut out);
        assert_eq!(telem.rerouted_flows(), 1);
    }

    #[test]
    fn random_loss_window_drops_with_certainty_probability() {
        let mut sw = sw0();
        let cfg = test_cfg();
        let mut telem = Telemetry::new();
        let mut pool = PacketPool::new();
        let mut out = Vec::new();
        sw.set_loss(2, 1.0);
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert_eq!(telem.counters.fault_drops, 1);
        assert_eq!(sw.buffered, 0);
        // Clearing the window restores forwarding.
        sw.set_loss(2, 0.0);
        out.clear();
        sw.on_arrive(
            SimTime::ZERO,
            0,
            data(0, 0, 2, 1000),
            &cfg,
            &mut telem,
            &mut pool,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [SwitchOutput::StartTx { port: 2, .. }]
        ));
    }

    #[test]
    fn egress_for_is_deterministic() {
        let sw = sw0();
        let a = egress_for(&sw, HostId(0), HostId(2), FlowId(0));
        let b = egress_for(&sw, HostId(0), HostId(2), FlowId(0));
        assert_eq!(a, b);
        assert_eq!(a, 2);
    }
}
