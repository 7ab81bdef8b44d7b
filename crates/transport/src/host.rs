//! The host: sender pacing + window enforcement, receiver ACK/CNP
//! generation, flow lifecycle.

use crate::config::TransportConfig;
use crate::flow::{FlowSpec, FlowTable, RecvFlow, SendFlow};
use fncc_cc::{AckView, CcFlow};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::fabric::{HostCtx, HostLogic};
use fncc_net::ids::FlowId;
use fncc_net::packet::{Packet, PacketKind};
use fncc_net::units::CNP_BYTES;
use fncc_obs::TraceEvent;
use std::collections::hash_map::Entry;

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

/// What outlives a flow's sender state once its final ACK arrives: the
/// flow-rate probe's byte counter and the LHCS diagnostics.
#[derive(Clone, Copy, Debug)]
struct RetiredFlow {
    tx_bytes: u64,
    /// `None` for schemes without LHCS.
    lhcs_triggers: Option<u64>,
}

/// An end host: RDMA-like sender and receiver sharing one NIC.
///
/// A sent flow moves through three tables: `pending` from `add_flow` to
/// its `FlowStart` timer, `send` until the cumulative ACK covers its last
/// byte, then `retired`, which keeps two counters and no CC state. Every
/// table, `recv` too, is a `std` `HashMap` keyed by flow id (`FlowTable`),
/// so it is sized by the flows this host carries, not by the run's ids.
pub struct DcHost {
    cfg: TransportConfig,
    /// Registered flows awaiting their start timer.
    pending: FlowTable<FlowSpec>,
    /// Started sender-side flows not yet fully acknowledged; every entry
    /// is live, so timers and packets that find none are for a retired
    /// flow and do nothing.
    send: FlowTable<SendFlow>,
    /// Fully acknowledged flows this host sent.
    retired: FlowTable<RetiredFlow>,
    /// Receiver-side flows, kept after the last byte so a duplicate frame
    /// is still re-ACKed.
    recv: FlowTable<RecvFlow>,
    /// Incoming flows currently in progress — the `N` of FNCC ACKs.
    active_incoming: u32,
}

impl DcHost {
    /// A host with the given transport configuration.
    pub fn new(cfg: TransportConfig) -> Self {
        DcHost {
            cfg,
            pending: FlowTable::default(),
            send: FlowTable::default(),
            retired: FlowTable::default(),
            recv: FlowTable::default(),
            active_incoming: 0,
        }
    }

    /// Register a flow this host will send. The caller must also schedule
    /// `HostTimer::FlowStart(spec.id)` at `spec.start` on the engine.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(spec.size > 0, "zero-size flow");
        self.pending.insert(spec.id, spec);
    }

    /// LHCS trigger count of an FNCC flow (ablation diagnostics).
    pub fn lhcs_triggers(&self, id: FlowId) -> Option<u64> {
        match self.send.get(&id) {
            Some(sf) => sf.cc.lhcs_triggers(),
            None => self.retired.get(&id)?.lhcs_triggers,
        }
    }

    fn start_flow(&mut self, ctx: &mut HostCtx<'_, HostTimer>, id: FlowId) {
        let spec = self
            .pending
            .remove(&id)
            .expect("FlowStart for unregistered flow");
        debug_assert_eq!(spec.src, ctx.host());
        let cc = self.cfg.algo.new_flow();
        if ctx.telemetry.rec.trace.enabled() {
            ctx.telemetry.rec.trace.record(TraceEvent::FlowStart {
                t_ps: ctx.now().as_ps(),
                flow: id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                size: spec.size,
            });
            // Seed the timeline with the flow's starting rate/window so the
            // first RateUpdate delta is interpretable.
            ctx.telemetry
                .rec
                .trace
                .record(rate_update(ctx.now(), id, &cc));
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
        let Some(sf) = self.send.get_mut(&id) else {
            return;
        };
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
                if ctx.telemetry.rec.trace.enabled() {
                    ctx.telemetry.rec.trace.record(TraceEvent::Retransmit {
                        t_ps: now.as_ps(),
                        flow: id.0,
                        seq: sf.next_seq,
                    });
                }
            }
            sf.next_seq += payload as u64;
            sf.highest_sent = sf.highest_sent.max(sf.next_seq);
            sf.cc.on_sent(payload as u64);
            sf.tx_bytes += payload as u64;
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
        let Some(sf) = self.send.get_mut(&id) else {
            return;
        };
        let Some(deadline) = sf.rto_deadline else {
            return;
        };
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
        if ctx.telemetry.rec.trace.enabled() {
            ctx.telemetry.rec.trace.record(TraceEvent::Rto {
                t_ps: now.as_ps(),
                flow: id.0,
                rto_ps: rto.as_ps(),
            });
            ctx.telemetry.rec.trace.record(rate_update(now, id, &sf.cc));
        }
        self.pump(ctx, id);
    }

    /// Turn a delivered data frame into its own ACK ([`Packet::into_ack`]).
    /// §3.2.3: the receiver writes the concurrent-flow count N (16 bits)
    /// into every ACK (a finishing flow still counts).
    fn make_ack(
        &self,
        ctx: &HostCtx<'_, HostTimer>,
        pkt: Box<Packet>,
        ack_seq: u64,
    ) -> Box<Packet> {
        let n = self.active_incoming.min(u16::MAX as u32) as u16;
        pkt.into_ack(ctx.host(), ack_seq, ctx.cfg.ack_base, n)
    }

    fn on_data(&mut self, ctx: &mut HostCtx<'_, HostTimer>, pkt: Box<Packet>) {
        let id = pkt.flow;
        let cfg_ack_every = self.cfg.ack_every;
        let cnp_interval = self.cfg.cnp_interval;
        let recovery_on = self.cfg.recovery.is_some();
        let rf = match self.recv.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.active_incoming += 1;
                e.insert(RecvFlow::new())
            }
        };
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
            if ctx.telemetry.rec.trace.enabled() {
                ctx.telemetry.rec.trace.record(TraceEvent::Cnp {
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
            if ctx.telemetry.rec.trace.enabled() {
                ctx.telemetry.rec.trace.record(TraceEvent::FlowFinish {
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
        ctx.telemetry.counters.int_truncations += pkt.int_dropped() as u64;
        if self.cfg.algo.kind().int_in_ack_reversed() {
            // FNCC ACKs collected INT in return-path order; normalise in
            // place (the box is consumed below, no copy needed).
            pkt.reverse_int();
        }
        // Fig. 12 instrumentation: how stale is each hop's telemetry on
        // arrival at the sender? Counted for every ACK, also a duplicate
        // that reaches a retired flow.
        for (hop, rec) in pkt.int().iter().enumerate() {
            let age = ctx.now().since(rec.ts);
            ctx.telemetry.counters.note_int_age(hop, age.as_secs_f64());
            if ctx.telemetry.rec.trace.enabled() {
                ctx.telemetry.rec.trace.record(TraceEvent::IntRecord {
                    t_ps: ctx.now().as_ps(),
                    flow: id.0,
                    hop: hop as u8,
                    age_ps: age.as_ps(),
                });
            }
        }
        let Some(sf) = self.send.get_mut(&id) else {
            // A go-back-N duplicate for a flow already fully acknowledged.
            debug_assert!(self.retired.contains_key(&id), "ACK for unsent {id:?}");
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
        if ctx.telemetry.rec.trace.enabled() {
            let ev = rate_update(ctx.now(), id, &sf.cc);
            ctx.telemetry.rec.trace.record(ev);
        }
        let done = sf.acked >= sf.spec.size;
        ctx.recycle(pkt);
        if done {
            // Retire: the CC state goes; its outstanding timers find no
            // entry and lapse.
            let sf = self.send.remove(&id).expect("live flow");
            let retired = RetiredFlow {
                tx_bytes: sf.tx_bytes,
                lhcs_triggers: sf.cc.lhcs_triggers(),
            };
            self.retired.insert(id, retired);
        } else {
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
                if let Some(sf) = self.send.get_mut(&pkt.flow) {
                    let span = ctx.telemetry.cc_span();
                    sf.cc.on_cnp(ctx.now());
                    ctx.telemetry.cc_span_end(span);
                    if ctx.telemetry.rec.trace.enabled() {
                        let ev = rate_update(ctx.now(), pkt.flow, &sf.cc);
                        ctx.telemetry.rec.trace.record(ev);
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
        self.send.get(&flow).map(|sf| sf.cc.pacing_rate_bps())
    }

    fn sent_bytes(&self, flow: FlowId) -> u64 {
        match self.send.get(&flow) {
            Some(sf) => sf.tx_bytes,
            None => self.retired.get(&flow).map_or(0, |r| r.tx_bytes),
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, HostTimer>, timer: HostTimer) {
        match timer {
            HostTimer::FlowStart(id) => self.start_flow(ctx, id),
            HostTimer::Pace(id) => {
                if let Some(sf) = self.send.get_mut(&id) {
                    sf.pace_pending = false;
                }
                self.pump(ctx, id);
            }
            HostTimer::CcTick(id) => {
                let Some(sf) = self.send.get_mut(&id) else {
                    return;
                };
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
        fabric
            .telemetry
            .register_flows(flows.iter().map(FlowSpec::record));
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
        assert!(eng.model.hosts[0].retired.contains_key(&FlowId(0)));
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
        assert_eq!(
            t.counters.int_age_hops(),
            3,
            "one record per request-path switch"
        );
        for hop in 0..3 {
            assert!(
                t.counters.mean_int_age(hop).is_some_and(|a| a > 0.0),
                "hop {hop}"
            );
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
        let (sw, port) = (fncc_net::ids::SwitchId(0), 2);
        eng.model
            .telemetry
            .watch(fncc_net::telemetry::Probe::Queue { sw, port }, "q");
        eng.schedule(SimTime::ZERO, Ev::Sample);
        eng.run_until(SimTime::from_ms(5));
        assert!(eng.model.telemetry.all_flows_finished());
        // Both flows finished ⇒ they shared; HPCC must keep the queue well
        // below the PFC threshold.
        let q = eng.model.telemetry.series("q").unwrap();
        assert!(q.max() > 0.0, "bottleneck never queued?");
        assert!(q.max() < 500.0, "queue {}KB at PFC threshold", q.max());
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

    /// A star with `n` hosts, INT on ACKs, running `algo` over `flows`.
    fn build_star(n: u32, algo: CcAlgo, flows: Vec<FlowSpec>) -> Engine<Fabric<DcHost>> {
        let topo = Topology::star(n, BW, PROP);
        let mut cfg = FabricConfig::paper_default();
        cfg.int = IntInsertion::OnAck;
        let tcfg = TransportConfig::new(algo);
        let hosts: Vec<DcHost> = (0..n).map(|_| DcHost::new(tcfg.clone())).collect();
        let mut fabric = Fabric::new(&topo, cfg, hosts);
        fabric
            .telemetry
            .register_flows(flows.iter().map(FlowSpec::record));
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
        eng
    }

    /// FNCC with the star's base RTT.
    fn star_fncc(n: u32) -> CcAlgo {
        let base_rtt = Topology::star(n, BW, PROP).base_rtt(1518, 70);
        CcAlgo::Fncc(FnccConfig::paper_default(BW, base_rtt))
    }

    #[test]
    fn fncc_lhcs_fires_under_last_hop_incast() {
        // 4 senders on a star incast into the receiver's link — the single
        // switch is the flows' last (and only) hop, so this is genuine
        // last-hop congestion.
        let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, i, 4, 2_000_000, 0)).collect();
        let mut eng = build_star(5, star_fncc(5), flows);
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

    /// A flow leaves `send` at its final ACK. What outlives it — the
    /// flow-rate probe's byte counter, the LHCS count, "done" — answers as
    /// it did while the sender kept every flow's state to the end of the
    /// run (the LHCS counts are those that sender read).
    #[test]
    fn finished_flows_leave_the_send_table() {
        // Three 4:1 incast waves into host 4; sender i runs flows i, i + 4
        // and i + 8 back to back.
        let size = 300_000;
        let flows: Vec<FlowSpec> = (0..12)
            .map(|f| flow(f, f % 4, 4, size, 200 * (f / 4) as u64))
            .collect();
        let mut eng = build_star(5, star_fncc(5), flows);
        eng.run_until(SimTime::from_ms(5));
        assert!(eng.model.telemetry.all_flows_finished());
        const LHCS: [u64; 12] = [53, 53, 53, 54, 53, 53, 53, 54, 53, 53, 53, 54];
        for f in 0..12 {
            let host = &eng.model.hosts[(f % 4) as usize];
            assert!(host.retired.contains_key(&FlowId(f)), "flow {f}");
            assert_eq!(host.sent_bytes(FlowId(f)), size, "flow {f}");
            assert_eq!(
                host.lhcs_triggers(FlowId(f)),
                Some(LHCS[f as usize]),
                "flow {f}"
            );
            assert_eq!(host.cc_rate_bps(FlowId(f)), None, "flow {f}");
        }
        assert!(LHCS.iter().sum::<u64>() > 0, "the incast never fired LHCS");
        for host in &eng.model.hosts {
            assert!(host.pending.is_empty() && host.send.is_empty());
        }
        // A non-FNCC sender retires with no LHCS count.
        let mut eng = build(2, hpcc(), |_| {}, vec![flow(0, 0, 2, size, 0)]);
        eng.run_until(SimTime::from_ms(5));
        let host = &eng.model.hosts[0];
        assert!(host.retired.contains_key(&FlowId(0)) && host.send.is_empty());
        assert_eq!(host.sent_bytes(FlowId(0)), size);
        assert_eq!(host.lhcs_triggers(FlowId(0)), None);
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
        let r0 = eng.model.hosts[0].cc_rate_bps(FlowId(0)).unwrap();
        let r1 = eng.model.hosts[1].cc_rate_bps(FlowId(1)).unwrap();
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
        let r0 = eng.model.hosts[0].cc_rate_bps(FlowId(0)).unwrap();
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

    /// The flow-rate probe's counter lives with the sender: it reads 0
    /// before the flow starts and on any other host, and every payload
    /// byte once the flow is done.
    #[test]
    fn flow_tx_accumulates_on_the_sender() {
        let size = 500_000;
        let mut eng = build(2, hpcc(), |_| {}, vec![flow(0, 0, 2, size, 20)]);
        eng.run_until(SimTime::from_us(10));
        assert_eq!(eng.model.hosts[0].sent_bytes(FlowId(0)), 0);
        eng.run_until(SimTime::from_us(30));
        let early = eng.model.hosts[0].sent_bytes(FlowId(0));
        assert!(early > 0 && early < size, "{early} bytes 10 µs in");
        eng.run_until(SimTime::from_ms(5));
        assert_eq!(eng.model.hosts[0].sent_bytes(FlowId(0)), size);
        assert_eq!(eng.model.hosts[1].sent_bytes(FlowId(0)), 0);
        assert_eq!(eng.model.hosts[2].sent_bytes(FlowId(0)), 0);
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
        assert_eq!(eng.model.hosts[2].active_incoming, 2);
        eng.run_until(SimTime::from_ms(5));
        assert_eq!(eng.model.hosts[2].active_incoming, 0);
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

    /// ACKs back to the sender crawl (switch 0's port to host 0 at 100×
    /// its propagation delay, 150 µs) past the 100 µs RTO floor, so the
    /// sender rewinds and resends frames the receiver already holds. Their
    /// duplicate ACKs arrive after the original ACK stream has retired the
    /// flow: each is recycled and still feeds the INT-age statistics.
    #[test]
    fn duplicate_ack_for_a_retired_flow_is_recycled_and_counted() {
        let mut eng = build_t(
            2,
            with_recovery(hpcc()),
            |cfg| {
                cfg.faults.push(FaultSpec::LinkDegrade {
                    switch: 0,
                    port: 0,
                    from_us: 0,
                    to_us: 20_000,
                    rate_factor: 1.0,
                    delay_factor: 100.0,
                });
            },
            vec![flow(0, 0, 2, 200_000, 0)],
        );
        let mut t = SimTime::ZERO;
        while !eng.model.hosts[0].retired.contains_key(&FlowId(0)) {
            t += TimeDelta::from_us(1);
            assert!(t < SimTime::from_ms(5), "flow never finished");
            eng.run_until(t);
        }
        assert!(eng.model.hosts[0].send.is_empty());
        let telem = &eng.model.telemetry;
        assert!(telem.counters.rtos > 0, "no rewind");
        let acks = telem.counters.acks_delivered;
        let samples = telem.counters.int_age_cnt;
        eng.run_until(SimTime::from_ms(20));
        let telem = &eng.model.telemetry;
        let late = telem.counters.acks_delivered - acks;
        assert!(late > 0, "no duplicate ACK reached the retired flow");
        for (hop, before) in samples.into_iter().enumerate().take(3) {
            assert_eq!(telem.counters.int_age_cnt[hop] - before, late, "hop {hop}");
        }
        // The rewound frames count: the retired counter includes them.
        assert!(eng.model.hosts[0].sent_bytes(FlowId(0)) > 200_000);
        // Drained: every frame and INT stack came back to the pool.
        let pool = &eng.model.pool;
        assert_eq!(pool.free_len() as u64, pool.fresh_allocs());
        assert_eq!(pool.free_stacks() as u64, pool.fresh_stacks());
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
