//! The host: sender pacing + window enforcement, receiver ACK/CNP
//! generation, flow lifecycle.

use crate::config::TransportConfig;
use crate::flow::{FlowSpec, FlowTable, RecvFlow, SendFlow};
use fncc_cc::{AckView, CcFlow};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::fabric::{HostCtx, HostLogic};
use fncc_net::ids::FlowId;
use fncc_net::packet::{Packet, PacketKind};
use fncc_net::telemetry::FlowRecord;
use fncc_net::units::CNP_BYTES;
use fncc_obs::TraceEvent;

/// Host timer payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostTimer {
    /// Activate a registered flow.
    FlowStart(FlowId),
    /// Pacing: the flow may transmit again.
    Pace(FlowId),
    /// Periodic congestion-control tick (DCQCN timers).
    CcTick(FlowId),
    /// Retransmission timeout (go-back-N recovery; only scheduled when
    /// [`crate::config::RecoveryConfig`] is enabled).
    Rto(FlowId),
}

/// An end host: RDMA-like sender and receiver sharing one NIC.
pub struct DcHost {
    cfg: TransportConfig,
    /// Registered flows awaiting their start timer.
    pending: FlowTable<FlowSpec>,
    /// Live sender-side flows.
    send: FlowTable<SendFlow>,
    /// Live receiver-side flows.
    recv: FlowTable<RecvFlow>,
    /// Incoming flows currently in progress — the `N` of FNCC ACKs.
    active_incoming: u32,
}

impl DcHost {
    /// A host with the given transport configuration.
    pub fn new(cfg: TransportConfig) -> Self {
        DcHost {
            cfg,
            pending: FlowTable::new(),
            send: FlowTable::new(),
            recv: FlowTable::new(),
            active_incoming: 0,
        }
    }

    /// Register a flow this host will send. The caller must also schedule
    /// `HostTimer::FlowStart(spec.id)` at `spec.start` on the engine.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(spec.size > 0, "zero-size flow");
        self.pending.insert(spec.id, spec);
    }

    /// Number of in-progress incoming flows (the receiver's `N`).
    pub fn active_incoming(&self) -> u32 {
        self.active_incoming
    }

    /// Sender-side pacing rate of a flow, if live.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.send.get(id).map(|sf| sf.cc.pacing_rate_bps())
    }

    /// True once every byte of the flow has been acknowledged.
    pub fn flow_done(&self, id: FlowId) -> bool {
        self.send.get(id).map(|sf| sf.done).unwrap_or(false)
    }

    /// LHCS trigger count of an FNCC flow (ablation diagnostics).
    pub fn lhcs_triggers(&self, id: FlowId) -> Option<u64> {
        self.send.get(id)?.cc.lhcs_triggers()
    }

    fn start_flow(&mut self, ctx: &mut HostCtx<'_, HostTimer>, id: FlowId) {
        let spec = self
            .pending
            .remove(id)
            .expect("FlowStart for unregistered flow");
        debug_assert_eq!(spec.src, ctx.host());
        ctx.telemetry.flow_started(FlowRecord {
            flow: id,
            src: spec.src,
            dst: spec.dst,
            size: spec.size,
            start: ctx.now(),
            finish: None,
        });
        let cc = self.cfg.algo.new_flow();
        if ctx.telemetry.trace.enabled() {
            ctx.telemetry.trace.record(TraceEvent::FlowStart {
                t_ps: ctx.now().as_ps(),
                flow: id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                size: spec.size,
            });
            // Seed the timeline with the flow's starting rate/window so the
            // first RateUpdate delta is interpretable.
            ctx.telemetry.trace.record(rate_update(ctx.now(), id, &cc));
        }
        if let Some(d) = cc.initial_tick() {
            ctx.schedule(d, HostTimer::CcTick(id));
        }
        self.send.insert(id, SendFlow::new(spec, cc));
        self.pump(ctx, id);
    }

    /// The send loop: emit frames while the window and pacing allow.
    fn pump(&mut self, ctx: &mut HostCtx<'_, HostTimer>, id: FlowId) {
        let cfg = &self.cfg;
        let recovery = cfg.recovery;
        let Some(sf) = self.send.get_mut(id) else {
            return;
        };
        if sf.done {
            return;
        }
        let payload_max = ctx.cfg.mtu_payload() as u64;
        loop {
            if sf.remaining() == 0 {
                return; // everything sent; completion waits on ACKs
            }
            if let Some(w) = sf.cc.window_bytes() {
                if sf.inflight() as f64 >= w {
                    return; // window closed; the next ACK re-pumps
                }
            }
            let now = ctx.now();
            if now < sf.next_send {
                if !sf.pace_pending {
                    sf.pace_pending = true;
                    ctx.schedule(sf.next_send - now, HostTimer::Pace(id));
                }
                return;
            }
            if ctx.nic_backlog() > cfg.nic_backlog_limit {
                // NIC busy with other flows' frames: retry after roughly one
                // frame's serialization.
                if !sf.pace_pending {
                    sf.pace_pending = true;
                    ctx.schedule(
                        ctx.nic_bw().tx_time(ctx.cfg.mtu as u64),
                        HostTimer::Pace(id),
                    );
                }
                return;
            }

            let payload = payload_max.min(sf.remaining()) as u32;
            let wire = payload + ctx.cfg.data_header;
            let mut pkt = ctx.pool().data(
                id,
                sf.spec.src,
                sf.spec.dst,
                sf.next_seq,
                payload,
                wire,
                now,
            );
            pkt.last_of_flow = sf.next_seq + payload as u64 == sf.spec.size;
            if sf.next_seq < sf.highest_sent {
                // Below the high-water mark: an RTO rewound the flow and
                // this frame is a go-back-N retransmission.
                ctx.telemetry.counters.retx += 1;
                if ctx.telemetry.trace.enabled() {
                    ctx.telemetry.trace.record(TraceEvent::Retransmit {
                        t_ps: now.as_ps(),
                        flow: id.0,
                        seq: sf.next_seq,
                    });
                }
            }
            sf.next_seq += payload as u64;
            sf.highest_sent = sf.highest_sent.max(sf.next_seq);
            sf.cc.on_sent(payload as u64);
            ctx.telemetry.add_flow_tx(id, payload as u64);
            ctx.send(pkt);
            if let Some(rec) = recovery {
                if sf.rto_deadline.is_none() {
                    // First unacknowledged byte of a quiet period: arm the
                    // retransmission timer.
                    let rto = rec.rto(sf.rto_backoff);
                    sf.rto_deadline = Some(now + rto);
                    ctx.schedule(rto, HostTimer::Rto(id));
                }
            }

            let rate = sf.cc.pacing_rate_bps().max(1.0);
            let gap = TimeDelta::from_secs_f64(wire as f64 * 8.0 / rate);
            sf.next_send = sf.next_send.max(now) + gap;
        }
    }

    /// The retransmission timer fired. The deadline is kept fresh on ACK
    /// progress without rescheduling (one outstanding timer per armed flow),
    /// so a firing may be stale — then it re-arms at the true deadline. A
    /// genuine expiry rewinds the flow to the cumulative ACK point
    /// (go-back-N), doubles the timeout, and tells the CC law.
    fn on_rto(&mut self, ctx: &mut HostCtx<'_, HostTimer>, id: FlowId) {
        let Some(rec) = self.cfg.recovery else {
            return;
        };
        let Some(sf) = self.send.get_mut(id) else {
            return;
        };
        let Some(deadline) = sf.rto_deadline else {
            return;
        };
        if sf.done {
            sf.rto_deadline = None;
            return;
        }
        let now = ctx.now();
        if now < deadline {
            ctx.schedule(deadline - now, HostTimer::Rto(id));
            return;
        }
        if sf.inflight() == 0 {
            // Nothing outstanding (window-closed idle); re-armed on the
            // next send.
            sf.rto_deadline = None;
            return;
        }
        sf.next_seq = sf.acked;
        sf.rto_backoff += 1;
        let rto = rec.rto(sf.rto_backoff);
        sf.rto_deadline = Some(now + rto);
        ctx.schedule(rto, HostTimer::Rto(id));
        sf.cc.on_timeout(now);
        ctx.telemetry.counters.rtos += 1;
        if ctx.telemetry.trace.enabled() {
            ctx.telemetry.trace.record(TraceEvent::Rto {
                t_ps: now.as_ps(),
                flow: id.0,
                rto_ps: rto.as_ps(),
            });
            ctx.telemetry.trace.record(rate_update(now, id, &sf.cc));
        }
        self.pump(ctx, id);
    }

    /// Turn a delivered data frame into its own ACK in place: the box (and
    /// its INT stack — the HPCC receiver copy of Fig. 4a, empty for
    /// FNCC/DCQCN/RoCC whose data carries no INT) is reused without touching
    /// the allocator. Every field ends up exactly as `Packet::ack` plus the
    /// receiver's echo assignments produced: `sent_at` keeps the data
    /// timestamp (RTT sampling) and `rocc_rate` the switch-advertised fair
    /// rate.
    fn make_ack(
        &self,
        ctx: &HostCtx<'_, HostTimer>,
        mut pkt: Box<Packet>,
        ack_seq: u64,
    ) -> Box<Packet> {
        pkt.kind = PacketKind::Ack;
        pkt.dst = pkt.src; // back to the data sender
        pkt.src = ctx.host();
        pkt.seq = ack_seq;
        pkt.size = ctx.cfg.ack_base + pkt.int_wire_bytes();
        pkt.payload = 0;
        pkt.ecn = false;
        // §3.2.3: the receiver writes the concurrent-flow count N
        // (16 bits) into every ACK (a finishing flow still counts).
        pkt.concurrent_flows = self.active_incoming.min(u16::MAX as u32) as u16;
        pkt.path_xor = 0;
        pkt.in_port = 0;
        pkt.accounted = 0;
        pkt.last_of_flow = false;
        pkt
    }

    fn on_data(&mut self, ctx: &mut HostCtx<'_, HostTimer>, pkt: Box<Packet>) {
        let id = pkt.flow;
        if self.recv.get(id).is_none() {
            self.recv.insert(id, RecvFlow::new());
            self.active_incoming += 1;
        }
        let cfg_ack_every = self.cfg.ack_every;
        let cnp_interval = self.cfg.cnp_interval;
        let recovery_on = self.cfg.recovery.is_some();
        let rf = self.recv.get_mut(id).expect("just inserted");
        if recovery_on && pkt.seq != rf.expected {
            // Go-back-N receiver: a gap (the preceding frame was lost
            // upstream) or a duplicate (retransmission overshoot / lost
            // ACK). Either way the payload is discarded and the cumulative
            // position re-ACKed immediately, bypassing `ack_every`, so the
            // sender learns its true progress without waiting.
            let ack_seq = rf.expected;
            let ack = self.make_ack(ctx, pkt, ack_seq);
            ctx.send(ack);
            return;
        }
        debug_assert_eq!(pkt.seq, rf.expected, "out-of-order delivery for {id:?}");
        rf.expected = pkt.seq + pkt.payload as u64;
        rf.frames_since_ack += 1;
        let is_last = pkt.last_of_flow;
        if is_last {
            rf.finished = true;
        }
        let want_cnp = pkt.ecn
            && rf
                .last_cnp
                .is_none_or(|t| ctx.now().since(t) >= cnp_interval);
        if want_cnp {
            rf.last_cnp = Some(ctx.now());
        }
        let want_ack = rf.frames_since_ack >= cfg_ack_every || is_last;
        if want_ack {
            rf.frames_since_ack = 0;
        }
        let ack_seq = rf.expected;

        // rf borrow ends here; act on the NIC.
        if want_cnp {
            let (host, now) = (ctx.host(), ctx.now());
            if ctx.telemetry.trace.enabled() {
                ctx.telemetry.trace.record(TraceEvent::Cnp {
                    t_ps: now.as_ps(),
                    flow: id.0,
                    src: host.0,
                    dst: pkt.src.0,
                });
            }
            let cnp = ctx.pool().cnp(id, host, pkt.src, CNP_BYTES, now);
            ctx.send(cnp);
        }
        if is_last {
            ctx.telemetry.flow_finished(id, ctx.now());
            if ctx.telemetry.trace.enabled() {
                ctx.telemetry.trace.record(TraceEvent::FlowFinish {
                    t_ps: ctx.now().as_ps(),
                    flow: id.0,
                });
            }
        }
        if want_ack {
            let ack = self.make_ack(ctx, pkt, ack_seq);
            ctx.send(ack);
        } else {
            ctx.recycle(pkt);
        }
        if is_last {
            self.active_incoming -= 1;
        }
    }

    fn on_ack(&mut self, ctx: &mut HostCtx<'_, HostTimer>, mut pkt: Box<Packet>) {
        let id = pkt.flow;
        let reversed = self.cfg.algo.kind().int_in_ack_reversed();
        ctx.telemetry.counters.int_truncations += pkt.int_dropped() as u64;
        let Some(sf) = self.send.get_mut(id) else {
            ctx.recycle(pkt);
            return;
        };
        let newly = pkt.seq.saturating_sub(sf.acked);
        if pkt.seq > sf.acked {
            sf.acked = pkt.seq;
        }
        if sf.next_seq < sf.acked {
            // A late ACK for pre-rewind frames overtook the rewound send
            // position: go-back-N never resends acknowledged bytes.
            sf.next_seq = sf.acked;
        }
        if newly > 0 {
            // Cumulative progress: restart backoff and push the armed
            // retransmission deadline out (the outstanding timer re-arms
            // itself when it fires stale — no reschedule here).
            sf.rto_backoff = 0;
            if let (Some(rec), Some(_)) = (self.cfg.recovery, sf.rto_deadline) {
                sf.rto_deadline = Some(ctx.now() + rec.rto(0));
            }
        }
        if reversed {
            // FNCC ACKs collected INT in return-path order; normalise in
            // place (the box is consumed below, no copy needed).
            pkt.reverse_int();
        }
        // Fig. 12 instrumentation: how stale is each hop's telemetry on
        // arrival at the sender?
        for (hop, rec) in pkt.int().iter().enumerate() {
            ctx.telemetry
                .note_int_age(hop, ctx.now().since(rec.ts).as_secs_f64());
            if ctx.telemetry.trace.enabled() {
                ctx.telemetry.trace.record(TraceEvent::IntRecord {
                    t_ps: ctx.now().as_ps(),
                    flow: id.0,
                    hop: hop as u8,
                    age_ps: ctx.now().since(rec.ts).as_ps(),
                });
            }
        }
        let view = AckView {
            now: ctx.now(),
            seq: pkt.seq,
            snd_nxt: sf.next_seq,
            newly_acked: newly,
            int: pkt.int(),
            concurrent_flows: pkt.concurrent_flows,
            rocc_rate: pkt.rocc_rate,
            rtt: ctx.now().since(pkt.sent_at),
        };
        let span = ctx.telemetry.cc_span();
        sf.cc.on_ack(&view);
        ctx.telemetry.cc_span_end(span);
        if ctx.telemetry.trace.enabled() {
            ctx.telemetry
                .trace
                .record(rate_update(ctx.now(), id, &sf.cc));
        }
        let done = sf.acked >= sf.spec.size;
        if done {
            sf.done = true;
        }
        ctx.recycle(pkt);
        if !done {
            self.pump(ctx, id);
        }
    }
}

/// The `RateUpdate` trace event for `cc`'s current pacing rate and window
/// (`-1` for a rate-only scheme).
fn rate_update(now: SimTime, flow: FlowId, cc: &CcFlow) -> TraceEvent {
    TraceEvent::RateUpdate {
        t_ps: now.as_ps(),
        flow: flow.0,
        rate_bps: cc.pacing_rate_bps(),
        window_bytes: cc.window_bytes().unwrap_or(-1.0),
    }
}

impl HostLogic for DcHost {
    type Timer = HostTimer;

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, HostTimer>, pkt: Box<Packet>) {
        match pkt.kind {
            PacketKind::Data => self.on_data(ctx, pkt),
            PacketKind::Ack => self.on_ack(ctx, pkt),
            PacketKind::Cnp => {
                if let Some(sf) = self.send.get_mut(pkt.flow) {
                    let span = ctx.telemetry.cc_span();
                    sf.cc.on_cnp(ctx.now());
                    ctx.telemetry.cc_span_end(span);
                    if ctx.telemetry.trace.enabled() {
                        ctx.telemetry
                            .trace
                            .record(rate_update(ctx.now(), pkt.flow, &sf.cc));
                    }
                }
                ctx.recycle(pkt);
            }
            PacketKind::PfcPause | PacketKind::PfcResume => {
                unreachable!("PFC handled by the fabric")
            }
        }
    }

    fn cc_rate_bps(&self, flow: FlowId) -> Option<f64> {
        let sf = self.send.get(flow)?;
        if sf.done {
            return None;
        }
        Some(sf.cc.pacing_rate_bps())
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, HostTimer>, timer: HostTimer) {
        match timer {
            HostTimer::FlowStart(id) => self.start_flow(ctx, id),
            HostTimer::Pace(id) => {
                if let Some(sf) = self.send.get_mut(id) {
                    sf.pace_pending = false;
                }
                self.pump(ctx, id);
            }
            HostTimer::CcTick(id) => {
                let Some(sf) = self.send.get_mut(id) else {
                    return;
                };
                if sf.done {
                    return;
                }
                if let Some(next) = sf.cc.tick(ctx.now()) {
                    ctx.schedule(next, HostTimer::CcTick(id));
                }
                self.pump(ctx, id);
            }
            HostTimer::Rto(id) => self.on_rto(ctx, id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryConfig;
    use fncc_cc::{CcAlgo, DcqcnConfig, FnccConfig, HpccConfig, RoccConfig};
    use fncc_des::engine::Engine;
    use fncc_des::time::SimTime;
    use fncc_net::config::{FabricConfig, IntInsertion};
    use fncc_net::fabric::{Ev, Fabric};
    use fncc_net::fault::FaultSpec;
    use fncc_net::ids::HostId;
    use fncc_net::topology::Topology;
    use fncc_net::units::Bandwidth;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_ns(1500);

    /// The packet engine's event, as the timing wheel stores it: 24 bytes,
    /// and `Option` of it no more (a 56-byte wheel node; see
    /// `fncc_des::wheel`). A wider timer payload or event variant should
    /// fail here, not in a benchmark.
    #[test]
    fn fabric_event_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<Ev<HostTimer>>(), 24);
        assert_eq!(std::mem::size_of::<Option<Ev<HostTimer>>>(), 24);
    }

    /// Build a dumbbell engine with the given transport config and flows.
    fn build_t(
        n_senders: u32,
        tcfg: TransportConfig,
        fabric_tweak: impl FnOnce(&mut FabricConfig),
        flows: Vec<FlowSpec>,
    ) -> Engine<Fabric<DcHost>> {
        let topo = Topology::dumbbell(n_senders, 3, BW, PROP);
        let mut cfg = FabricConfig::paper_default();
        crate::scheme::apply_cc_features(&mut cfg, tcfg.algo.kind(), BW);
        fabric_tweak(&mut cfg);
        let hosts: Vec<DcHost> = (0..topo.n_hosts)
            .map(|_| DcHost::new(tcfg.clone()))
            .collect();
        let mut fabric = Fabric::new(&topo, cfg, hosts);
        for f in &flows {
            fabric.hosts[f.src.ix()].add_flow(f.clone());
        }
        let mut eng = Engine::new(fabric);
        for (t, ev) in eng.model.startup_events() {
            eng.schedule(t, ev);
        }
        for f in flows {
            eng.schedule(
                f.start,
                Ev::HostTimer {
                    host: f.src,
                    timer: HostTimer::FlowStart(f.id),
                },
            );
        }
        eng
    }

    /// Build a dumbbell engine with the given CC scheme and flows.
    fn build(
        n_senders: u32,
        algo: CcAlgo,
        fabric_tweak: impl FnOnce(&mut FabricConfig),
        flows: Vec<FlowSpec>,
    ) -> Engine<Fabric<DcHost>> {
        build_t(n_senders, TransportConfig::new(algo), fabric_tweak, flows)
    }

    fn hpcc() -> CcAlgo {
        CcAlgo::Hpcc(HpccConfig::paper_default(BW, TimeDelta::from_us(13)))
    }

    fn flow(id: u32, src: u32, dst: u32, size: u64, start_us: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            size,
            start: SimTime::from_us(start_us),
        }
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        let size = 1_000_000u64;
        let mut eng = build(2, hpcc(), |_| {}, vec![flow(0, 0, 2, size, 0)]);
        eng.run_until(SimTime::from_ms(5));
        let rec = eng.model.telemetry.flow_record(FlowId(0)).unwrap();
        let fct = rec.fct().expect("flow must finish");
        // Ideal ≈ size/100G + pipeline ≈ 80us + 12.5us ≈ 92us; actual should
        // be within 2x of that (pacing + ACK clocking overheads).
        assert!(
            fct > TimeDelta::from_us(85) && fct < TimeDelta::from_us(200),
            "FCT {fct}"
        );
        assert!(eng.model.hosts[0].flow_done(FlowId(0)));
    }

    /// The HPCC receiver turns each data frame into its ACK in place, so
    /// the ACK keeps the records the three switches appended to the data
    /// frame and the sender reads all three hops; no stack is dropped.
    #[test]
    fn hpcc_in_place_ack_keeps_the_data_frames_int() {
        let mut eng = build(2, hpcc(), |_| {}, vec![flow(0, 0, 2, 200_000, 0)]);
        eng.run_until(SimTime::from_ms(2));
        let t = &eng.model.telemetry;
        assert!(t.all_flows_finished());
        assert_eq!(t.int_age_hops(), 3, "one record per request-path switch");
        for hop in 0..3 {
            assert!(t.mean_int_age(hop).is_some_and(|a| a > 0.0), "hop {hop}");
        }
        assert_eq!(t.counters.int_truncations, 0);
        // The run is drained: every stack came back to the pool with its
        // frame.
        let pool = &eng.model.pool;
        assert!(pool.fresh_stacks() > 0);
        assert_eq!(pool.free_stacks() as u64, pool.fresh_stacks());
    }

    #[test]
    fn two_hpcc_flows_share_the_bottleneck_and_bound_the_queue() {
        let size = 3_000_000u64;
        let mut eng = build(
            2,
            hpcc(),
            |_| {},
            vec![flow(0, 0, 2, size, 0), flow(1, 1, 2, size, 0)],
        );
        eng.model
            .telemetry
            .enable_sampling(TimeDelta::from_us(1), SimTime::from_ms(2));
        eng.model
            .telemetry
            .watch_queue(fncc_net::ids::SwitchId(0), 2, "q");
        eng.schedule(SimTime::ZERO, Ev::Sample);
        eng.run_until(SimTime::from_ms(5));
        assert!(eng.model.telemetry.all_flows_finished());
        // Both flows finished ⇒ they shared; HPCC must keep the queue well
        // below the PFC threshold.
        let q = eng
            .model
            .telemetry
            .queue_series(fncc_net::ids::SwitchId(0), 2)
            .unwrap();
        assert!(q.max() > 0.0, "bottleneck never queued?");
        assert!(
            q.max() < 500.0 * 1024.0,
            "queue {}KB at PFC threshold",
            q.max() / 1024.0
        );
        assert_eq!(
            eng.model.telemetry.counters.pfc_pause_tx, 0,
            "HPCC should avoid PFC here"
        );
    }

    #[test]
    fn fncc_acks_carry_int_and_flow_completes() {
        let algo = CcAlgo::Fncc(FnccConfig::paper_default(BW, TimeDelta::from_us(13)));
        let mut eng = build(
            2,
            algo,
            |_| {},
            vec![flow(0, 0, 2, 2_000_000, 0), flow(1, 1, 2, 2_000_000, 0)],
        );
        eng.run_until(SimTime::from_ms(5));
        assert!(eng.model.telemetry.all_flows_finished());
        // Windows reacted: both flows below initial BDP at some point means
        // U was measured via ACK INT. (Indirect: flows finished AND no PFC.)
        assert_eq!(eng.model.telemetry.counters.drops, 0);
    }

    #[test]
    fn fncc_lhcs_fires_under_last_hop_incast() {
        // 4 senders on a star incast into the receiver's link — the single
        // switch is the flows' last (and only) hop, so this is genuine
        // last-hop congestion.
        let topo = Topology::star(5, BW, PROP);
        let base_rtt = topo.base_rtt(1518, 70);
        let algo = CcAlgo::Fncc(FnccConfig::paper_default(BW, base_rtt));
        let mut cfg = FabricConfig::paper_default();
        cfg.int = IntInsertion::OnAck;
        let tcfg = TransportConfig::new(algo);
        let hosts: Vec<DcHost> = (0..5).map(|_| DcHost::new(tcfg.clone())).collect();
        let mut fabric = Fabric::new(&topo, cfg, hosts);
        let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, i, 4, 2_000_000, 0)).collect();
        for f in &flows {
            fabric.hosts[f.src.ix()].add_flow(f.clone());
        }
        let mut eng = Engine::new(fabric);
        for f in flows {
            eng.schedule(
                f.start,
                Ev::HostTimer {
                    host: f.src,
                    timer: HostTimer::FlowStart(f.id),
                },
            );
        }
        eng.run_until(SimTime::from_ms(1));
        let total: u64 = (0..4)
            .map(|i| {
                eng.model.hosts[i as usize]
                    .lhcs_triggers(FlowId(i))
                    .unwrap_or(0)
            })
            .sum();
        assert!(total > 0, "LHCS never fired under 4:1 last-hop incast");
    }

    #[test]
    fn fncc_lhcs_does_not_fire_at_first_hop_merge() {
        // In the dumbbell all senders share the first switch: congestion is
        // at the FIRST hop, so LHCS must stay silent.
        let algo = CcAlgo::Fncc(FnccConfig::paper_default(BW, TimeDelta::from_us(13)));
        let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, i, 4, 2_000_000, 0)).collect();
        let mut eng = build(4, algo, |_| {}, flows);
        eng.run_until(SimTime::from_ms(1));
        let total: u64 = (0..4)
            .map(|i| {
                eng.model.hosts[i as usize]
                    .lhcs_triggers(FlowId(i))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 0, "LHCS fired on first-hop congestion");
    }

    #[test]
    fn dcqcn_generates_cnps_and_slows_down() {
        let algo = CcAlgo::Dcqcn(DcqcnConfig::paper_default(BW));
        let mut eng = build(
            2,
            algo,
            |_| {},
            vec![flow(0, 0, 2, 3_000_000, 0), flow(1, 1, 2, 3_000_000, 0)],
        );
        eng.run_until(SimTime::from_us(300));
        assert!(eng.model.telemetry.counters.ecn_marks > 0, "no ECN marks");
        assert!(eng.model.telemetry.counters.cnps_delivered > 0, "no CNPs");
        let r0 = eng.model.hosts[0].flow_rate(FlowId(0)).unwrap();
        let r1 = eng.model.hosts[1].flow_rate(FlowId(1)).unwrap();
        assert!(r0 < 100e9 && r1 < 100e9, "rates did not drop: {r0} {r1}");
    }

    #[test]
    fn rocc_sender_adopts_switch_rate() {
        let algo = CcAlgo::Rocc(RoccConfig::paper_default(BW));
        let mut eng = build(
            2,
            algo,
            |_| {},
            vec![flow(0, 0, 2, 3_000_000, 0), flow(1, 1, 2, 3_000_000, 0)],
        );
        eng.run_until(SimTime::from_us(500));
        let r0 = eng.model.hosts[0].flow_rate(FlowId(0)).unwrap();
        assert!(r0 < 100e9, "RoCC rate never advertised down: {r0}");
    }

    #[test]
    fn cumulative_acks_reduce_ack_count() {
        let size = 1_456_000u64; // exactly 1000 full frames
        let run = |m: u32| {
            let algo = hpcc();
            let tweak = |_: &mut FabricConfig| {};
            let mut eng = build(2, algo, tweak, vec![flow(0, 0, 2, size, 0)]);
            // Patch the transport config: rebuild hosts with ack_every=m.
            let tcfg = TransportConfig::new(hpcc()).with_ack_every(m);
            for h in &mut eng.model.hosts {
                *h = DcHost::new(tcfg.clone());
            }
            eng.model.hosts[0].add_flow(flow(0, 0, 2, size, 0));
            eng.run_until(SimTime::from_ms(5));
            assert!(eng.model.telemetry.all_flows_finished(), "m={m}");
            eng.model.telemetry.counters.acks_delivered
        };
        let per_packet = run(1);
        let coalesced = run(4);
        assert_eq!(per_packet, 1000);
        assert_eq!(coalesced, 250);
    }

    #[test]
    fn staggered_start_respects_start_time() {
        let mut eng = build(
            2,
            hpcc(),
            |_| {},
            vec![flow(0, 0, 2, 500_000, 0), flow(1, 1, 2, 500_000, 300)],
        );
        eng.run_until(SimTime::from_ms(5));
        let t = &eng.model.telemetry;
        let r0 = t.flow_record(FlowId(0)).unwrap();
        let r1 = t.flow_record(FlowId(1)).unwrap();
        assert_eq!(r0.start, SimTime::ZERO);
        assert_eq!(r1.start, SimTime::from_us(300));
        assert!(t.all_flows_finished());
    }

    #[test]
    fn receiver_reports_concurrent_flow_count() {
        // Two senders to the same receiver; while both are active the
        // receiver must count 2.
        let algo = CcAlgo::Fncc(FnccConfig::paper_default(BW, TimeDelta::from_us(13)));
        let mut eng = build(
            2,
            algo,
            |_| {},
            vec![flow(0, 0, 2, 2_000_000, 0), flow(1, 1, 2, 2_000_000, 0)],
        );
        eng.run_until(SimTime::from_us(100));
        assert_eq!(eng.model.hosts[2].active_incoming(), 2);
        eng.run_until(SimTime::from_ms(5));
        assert_eq!(eng.model.hosts[2].active_incoming(), 0);
    }

    /// Recovery config for the fault tests.
    fn with_recovery(algo: CcAlgo) -> TransportConfig {
        TransportConfig::new(algo).with_recovery(RecoveryConfig::paper_default())
    }

    #[test]
    fn go_back_n_completes_under_random_loss() {
        // 2% loss on the dumbbell bottleneck for the whole run: the flow
        // must still finish, via rewinds and RTOs.
        let mut eng = build_t(
            2,
            with_recovery(hpcc()),
            |cfg| {
                cfg.faults.push(FaultSpec::RandomLoss {
                    switch: 0,
                    port: 2,
                    from_us: 0,
                    to_us: 20_000,
                    probability: 0.02,
                });
            },
            vec![flow(0, 0, 2, 500_000, 0)],
        );
        eng.run_until(SimTime::from_ms(20));
        let t = &eng.model.telemetry;
        assert!(t.all_flows_finished(), "flow stuck under 2% loss");
        assert!(t.counters.fault_drops > 0, "loss window never dropped");
        assert!(t.counters.retx > 0, "no retransmissions recorded");
        assert!(t.counters.rtos > 0, "no RTO fired");
    }

    #[test]
    fn link_flap_recovers_and_flow_completes() {
        // The dumbbell's single path dies at 20 µs and comes back at
        // 300 µs; go-back-N must carry the flow across the outage.
        let mut eng = build_t(
            2,
            with_recovery(hpcc()),
            |cfg| {
                let (switch, port) = (0, 2);
                cfg.faults.extend([
                    FaultSpec::LinkDown {
                        switch,
                        port,
                        at_us: 20,
                    },
                    FaultSpec::LinkUp {
                        switch,
                        port,
                        at_us: 300,
                    },
                ]);
            },
            vec![flow(0, 0, 2, 500_000, 0)],
        );
        eng.run_until(SimTime::from_ms(20));
        let t = &eng.model.telemetry;
        assert!(t.all_flows_finished(), "flow did not survive the flap");
        assert!(t.counters.fault_drops > 0, "nothing dropped at the outage");
        assert!(t.counters.retx > 0);
        assert!(t.counters.rtos > 0);
        let fct = t.flow_record(FlowId(0)).unwrap().fct().unwrap();
        assert!(
            fct > TimeDelta::from_us(300),
            "FCT {fct} cannot predate the restoration"
        );
    }

    #[test]
    fn severed_path_rtos_back_off_and_flow_stays_incomplete() {
        // Permanently dead path: the sender must keep trying with
        // exponentially growing timeouts, and the flow must not finish.
        // With rto_min = 100 µs, genuine expiries land near 100, 300, 700,
        // 1500, 3100 µs — 5 within a 5 ms run.
        let mut eng = build_t(
            2,
            with_recovery(hpcc()),
            |cfg| {
                cfg.faults.push(FaultSpec::LinkDown {
                    switch: 0,
                    port: 2,
                    at_us: 0,
                });
            },
            vec![flow(0, 0, 2, 500_000, 0)],
        );
        eng.run_until(SimTime::from_ms(5));
        let t = &eng.model.telemetry;
        assert!(!t.all_flows_finished(), "finished across a dead link?");
        let rtos = t.counters.rtos;
        assert!(
            (4..=6).contains(&rtos),
            "rtos {rtos} outside the exponential-backoff envelope"
        );
        assert!(t.counters.retx >= rtos - 1);
        assert!(t.counters.fault_drops > 0);
    }

    #[test]
    fn recovery_timers_do_not_perturb_lossless_runs() {
        // With no faults, arming RTO timers must not change any flow's
        // completion time, and no RTO or retransmission may ever fire.
        let run = |rec: Option<RecoveryConfig>| {
            let mut tcfg = TransportConfig::new(hpcc());
            tcfg.recovery = rec;
            let mut eng = build_t(
                2,
                tcfg,
                |_| {},
                vec![flow(0, 0, 2, 1_000_000, 0), flow(1, 1, 2, 1_000_000, 50)],
            );
            eng.run_until(SimTime::from_ms(5));
            let t = &eng.model.telemetry;
            (
                t.flow_record(FlowId(0)).unwrap().finish,
                t.flow_record(FlowId(1)).unwrap().finish,
                t.counters.retx,
                t.counters.rtos,
            )
        };
        let with = run(Some(RecoveryConfig::paper_default()));
        let without = run(None);
        assert_eq!(with.0, without.0, "recovery changed flow 0's FCT");
        assert_eq!(with.1, without.1, "recovery changed flow 1's FCT");
        assert_eq!(with.2, 0, "spurious retransmission");
        assert_eq!(with.3, 0, "spurious RTO");
        assert_eq!(without.2, 0);
        assert_eq!(without.3, 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut eng = build(
                2,
                hpcc(),
                |_| {},
                vec![flow(0, 0, 2, 1_000_000, 0), flow(1, 1, 2, 1_000_000, 50)],
            );
            eng.run_until(SimTime::from_ms(5));
            (
                eng.events_processed(),
                eng.model.telemetry.flow_record(FlowId(0)).unwrap().finish,
                eng.model.telemetry.flow_record(FlowId(1)).unwrap().finish,
            )
        };
        assert_eq!(run(), run());
    }
}
