//! A full-duplex network port: the egress half of one link direction.
//!
//! Each port owns an egress FIFO for data-class frames plus a strict-priority
//! control FIFO for PFC frames (pause frames must cut through even when the
//! data class is paused). Ingress needs no state — arriving frames are
//! delivered as events.

use crate::ids::NodeRef;
use crate::packet::{IntRecord, Packet};
use crate::telemetry::Telemetry;
use crate::topology::PortSpec;
use crate::units::Bandwidth;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_obs::TraceEvent;
use std::collections::VecDeque;

/// Egress state of one port.
#[derive(Debug)]
pub struct Port {
    /// Far end of the link.
    pub peer: NodeRef,
    /// Port index at the far end.
    pub peer_port: u8,
    /// Link rate.
    pub bw: Bandwidth,
    /// Effective drain rate: `bw` minus any externally-imposed share of the
    /// link (hybrid backend: the fluid background load on this link leaves
    /// only the residual for packet traffic). Defaults to `bw`; see
    /// [`Self::set_drain_bw`].
    drain_bw: Bandwidth,
    /// One-way propagation delay.
    pub prop: TimeDelta,
    /// Data-class egress FIFO.
    queue: VecDeque<Box<Packet>>,
    /// Control-class egress FIFO (PFC frames): strict priority, never paused.
    ctrl: VecDeque<Box<Packet>>,
    /// Bytes queued in the data-class FIFO (the `qLen` of INT records).
    pub queue_bytes: u64,
    /// Frame currently being serialized, if any.
    pub in_flight: Option<Box<Packet>>,
    /// True while the peer has PFC-paused our data class.
    pub paused: bool,
    /// When the current pause began (watchdog/storm accounting).
    pub paused_since: Option<fncc_des::SimTime>,
    /// Cumulative data-class bytes fully transmitted (the `txBytes` of INT).
    pub tx_bytes: u64,
    /// PFC XOFF frames sent from this port ("pause times" of Fig. 3).
    pub pause_tx: u64,
    /// PFC XON frames sent from this port.
    pub resume_tx: u64,
    /// PFC XOFF frames received on this port.
    pub pause_rx: u64,
    /// Picoseconds per byte at `drain_bw` when that is a whole number —
    /// the rate divides 8·10¹², as every shipped line rate does — else 0.
    /// Serialization time is then one multiplication.
    ps_per_byte: u64,
    /// For the other rates (a degraded link's), a memo of the last
    /// serialization-time computation (`bytes` → span): frame sizes
    /// repeat, and the 128-bit division in [`Bandwidth::tx_time`] is
    /// hot-path noticeable.
    tx_memo: (u64, TimeDelta),
    /// Phantom egress backlog, in bytes: traffic that exists only in a
    /// co-simulated fluid model but whose standing queue this port must
    /// still *signal* (INT `qLen`, ECN marking depth, RoCC queue sample)
    /// and *impose* (frames delivered late by its serialization time).
    /// Never occupies shared buffer and never enters PFC accounting —
    /// the fluid half owns those bytes, the packet half only sees their
    /// shadow. Set via [`crate::fabric::Fabric::set_port_backlog`].
    virtual_backlog: u64,
    /// Arrival time of the frame most recently put on the wire: a
    /// shrinking `virtual_backlog` must not let a later frame overtake an
    /// earlier one (a FIFO queue reorders nothing).
    last_arrival: fncc_des::SimTime,
    /// PFC accounting: bytes buffered from frames that *entered* on this
    /// port index (ingress side; lives here so one port touch covers both
    /// directions of the hot path).
    pub ingress_bytes: u64,
    /// True while we hold the upstream on this ingress port paused.
    pub upstream_paused: bool,
    /// This port's `All_INT_Table` entry (Fig. 8): last periodic snapshot.
    /// Unused in live mode.
    pub int_rec: IntRecord,
    /// RoCC advertised fair rate (bits/s).
    pub rocc_rate: f64,
    /// RoCC controller: previous queue sample.
    pub rocc_prev_q: f64,
}

impl Port {
    /// Build a port from its topology description.
    pub fn from_spec(spec: &PortSpec) -> Port {
        Port {
            peer: spec.peer,
            peer_port: spec.peer_port,
            bw: spec.bw,
            drain_bw: spec.bw,
            prop: spec.prop,
            queue: VecDeque::new(),
            ctrl: VecDeque::new(),
            queue_bytes: 0,
            in_flight: None,
            paused: false,
            paused_since: None,
            tx_bytes: 0,
            pause_tx: 0,
            resume_tx: 0,
            pause_rx: 0,
            ps_per_byte: ps_per_byte(spec.bw),
            tx_memo: (u64::MAX, TimeDelta::ZERO),
            virtual_backlog: 0,
            last_arrival: fncc_des::SimTime::ZERO,
            ingress_bytes: 0,
            upstream_paused: false,
            int_rec: IntRecord {
                bandwidth: spec.bw,
                ts: fncc_des::SimTime::ZERO,
                tx_bytes: 0,
                qlen: 0,
            },
            rocc_rate: spec.bw.as_f64(),
            rocc_prev_q: 0.0,
        }
    }

    /// Serialization time of `bytes` at this port's *drain* rate (identical
    /// result to [`Bandwidth::tx_time`] at [`Self::drain_bw`]): a multiply
    /// when the rate has a whole number of picoseconds per byte — data
    /// frames and INT-grown ACKs alternating on a port would thrash a
    /// one-entry memo — and otherwise memoized on the last distinct size.
    #[inline]
    pub fn tx_time(&mut self, bytes: u64) -> TimeDelta {
        if self.ps_per_byte != 0 {
            if let Some(ps) = bytes.checked_mul(self.ps_per_byte) {
                return TimeDelta::from_ps(ps);
            }
        }
        if self.tx_memo.0 != bytes {
            self.tx_memo = (bytes, self.drain_bw.tx_time(bytes));
        }
        self.tx_memo.1
    }

    /// Current effective drain rate (`bw` unless capped by
    /// [`Self::set_drain_bw`]).
    #[inline]
    pub fn drain_bw(&self) -> Bandwidth {
        self.drain_bw
    }

    /// Cap the port's effective drain rate at `rate` (residual-capacity
    /// push from the hybrid backend's fluid half). Clamped to
    /// `[bw/100, bw]` so serialization time stays finite; takes effect
    /// from the *next* frame — the one in flight keeps its scheduled
    /// TxDone (deterministic regardless of when the push lands within a
    /// frame). Invalidates the serialization-time memo.
    pub fn set_drain_bw(&mut self, rate: Bandwidth) {
        let floor = Bandwidth::bps((self.bw.as_bps() / 100).max(1));
        let capped = rate.clamp(floor, self.bw);
        if capped != self.drain_bw {
            self.drain_bw = capped;
            self.ps_per_byte = ps_per_byte(capped);
            self.tx_memo = (u64::MAX, TimeDelta::ZERO);
        }
    }

    /// Current phantom egress backlog (bytes); see [`Self::set_backlog`].
    #[inline]
    pub fn backlog(&self) -> u64 {
        self.virtual_backlog
    }

    /// Set the phantom egress backlog (hybrid backend: the fluid
    /// background's standing queue on this link). Takes effect on the
    /// next signal read / frame delivery.
    #[inline]
    pub fn set_backlog(&mut self, bytes: u64) {
        self.virtual_backlog = bytes;
    }

    /// Queue depth as congestion signals must see it: real queued bytes
    /// plus the phantom backlog.
    #[inline]
    pub fn signal_qlen(&self) -> u64 {
        self.queue_bytes + self.virtual_backlog
    }

    /// This port's INT record as read at `now`: the live counters the
    /// switch stamps, or snapshots into its `All_INT_Table`.
    #[inline]
    pub(crate) fn int_record(&self, now: SimTime) -> IntRecord {
        IntRecord {
            bandwidth: self.drain_bw(),
            ts: now,
            tx_bytes: self.tx_bytes,
            qlen: self.signal_qlen(),
        }
    }

    /// One-way delivery delay for a frame put on the wire at `now`:
    /// propagation plus the FIFO wait behind the phantom backlog (its
    /// serialization time at line rate), clamped so arrivals stay in
    /// transmission order even when the backlog shrinks between frames.
    #[inline]
    pub fn wire_delay(&mut self, now: fncc_des::SimTime) -> TimeDelta {
        let mut d = self.prop;
        if self.virtual_backlog > 0 {
            d += self.bw.tx_time(self.virtual_backlog);
        }
        let at = now + d;
        let at = at.max(self.last_arrival);
        self.last_arrival = at;
        at.since(now)
    }

    /// Queue a data-class frame (data, ACK or CNP).
    #[inline]
    pub fn enqueue(&mut self, pkt: Box<Packet>) {
        debug_assert!(!pkt.kind.is_control());
        self.queue_bytes += pkt.size as u64;
        self.queue.push_back(pkt);
    }

    /// Queue a control frame (strict priority).
    #[inline]
    pub fn enqueue_ctrl(&mut self, pkt: Box<Packet>) {
        debug_assert!(pkt.kind.is_control());
        self.ctrl.push_back(pkt);
    }

    /// Frames waiting in the data FIFO.
    #[cfg(test)]
    fn queued_frames(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is being serialized.
    #[inline]
    pub fn idle(&self) -> bool {
        self.in_flight.is_none()
    }

    /// Remove every queued frame (control first, then data) without
    /// transmitting them — link-fault teardown. The frame in flight (if
    /// any) is left alone: its `TxDone` is already scheduled, and the
    /// switch discards it there once it sees the port is dead.
    pub fn purge_queues(&mut self) -> Vec<Box<Packet>> {
        self.queue_bytes = 0;
        self.ctrl.drain(..).chain(self.queue.drain(..)).collect()
    }

    /// Take the next frame to serialize, honouring control priority and the
    /// PFC pause state (pause gates the data class only). Updates
    /// `queue_bytes`.
    #[inline]
    pub fn dequeue(&mut self) -> Option<Box<Packet>> {
        if let Some(c) = self.ctrl.pop_front() {
            return Some(c);
        }
        if self.paused {
            return None;
        }
        let pkt = self.queue.pop_front()?;
        self.queue_bytes -= pkt.size as u64;
        Some(pkt)
    }

    /// Take a PFC pause (`pause`) or resume frame received on this port,
    /// port index `port` of `node`: flip `paused`, count the XOFF, open or
    /// close the pause episode, and trace it. The caller returns the frame
    /// to its pool and, on a resume, restarts transmission.
    pub(crate) fn on_pfc_rx(
        &mut self,
        pause: bool,
        now: SimTime,
        node: NodeRef,
        port: u8,
        telem: &mut Telemetry,
    ) {
        self.paused = pause;
        if pause {
            self.pause_rx += 1;
            if self.paused_since.is_none() {
                self.paused_since = Some(now);
            }
        } else if let Some(t0) = self.paused_since.take() {
            telem.counters.note_pause_episode(now.since(t0));
        }
        if telem.rec.trace.enabled() {
            let (t_ps, tx) = (now.as_ps(), false);
            let (node, at_host) = match node {
                NodeRef::Host(h) => (h.0, true),
                NodeRef::Switch(s) => (s.0, false),
            };
            telem.rec.trace.record(if pause {
                TraceEvent::PfcPause {
                    t_ps,
                    node,
                    port,
                    tx,
                    at_host,
                }
            } else {
                TraceEvent::PfcResume {
                    t_ps,
                    node,
                    port,
                    tx,
                    at_host,
                }
            });
        }
    }
}

/// Whole picoseconds per byte at `bw`, or 0 when the rate does not divide
/// 8·10¹² (then [`Bandwidth::tx_time`] has to round up).
fn ps_per_byte(bw: Bandwidth) -> u64 {
    const AT_1_BPS: u64 = 8_000_000_000_000;
    if AT_1_BPS.is_multiple_of(bw.as_bps()) {
        AT_1_BPS / bw.as_bps()
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::PacketKind;
    use fncc_des::time::SimTime;

    fn spec() -> PortSpec {
        PortSpec {
            peer: NodeRef::Host(HostId(0)),
            peer_port: 0,
            bw: Bandwidth::gbps(100),
            prop: TimeDelta::from_us(1),
        }
    }

    fn data(size: u32) -> Box<Packet> {
        Packet::data(
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            size - 62,
            size,
            SimTime::ZERO,
        )
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut p = Port::from_spec(&spec());
        p.enqueue(data(100));
        p.enqueue(data(200));
        assert_eq!(p.queue_bytes, 300);
        assert_eq!(p.queued_frames(), 2);
        let a = p.dequeue().unwrap();
        assert_eq!(a.size, 100);
        assert_eq!(p.queue_bytes, 200);
        let b = p.dequeue().unwrap();
        assert_eq!(b.size, 200);
        assert_eq!(p.queue_bytes, 0);
        assert!(p.dequeue().is_none());
    }

    #[test]
    fn control_frames_have_strict_priority() {
        let mut p = Port::from_spec(&spec());
        p.enqueue(data(100));
        p.enqueue_ctrl(Packet::pfc(PacketKind::PfcPause, 64, SimTime::ZERO));
        let first = p.dequeue().unwrap();
        assert_eq!(first.kind, PacketKind::PfcPause);
        let second = p.dequeue().unwrap();
        assert_eq!(second.kind, PacketKind::Data);
    }

    #[test]
    fn pause_gates_data_but_not_control() {
        let mut p = Port::from_spec(&spec());
        p.enqueue(data(100));
        p.enqueue_ctrl(Packet::pfc(PacketKind::PfcResume, 64, SimTime::ZERO));
        p.paused = true;
        // Control still flows.
        assert_eq!(p.dequeue().unwrap().kind, PacketKind::PfcResume);
        // Data is gated…
        assert!(p.dequeue().is_none());
        assert_eq!(p.queue_bytes, 100);
        // …until resumed.
        p.paused = false;
        assert_eq!(p.dequeue().unwrap().kind, PacketKind::Data);
    }

    #[test]
    fn drain_bw_caps_tx_time_and_clamps() {
        let mut p = Port::from_spec(&spec());
        let full = p.tx_time(1500);
        p.set_drain_bw(Bandwidth::gbps(50));
        assert_eq!(p.drain_bw(), Bandwidth::gbps(50));
        let capped = p.tx_time(1500);
        assert_eq!(capped, Bandwidth::gbps(50).tx_time(1500));
        assert!(capped > full);
        // Restoring the full rate restores the memoized answer.
        p.set_drain_bw(Bandwidth::gbps(100));
        assert_eq!(p.tx_time(1500), full);
        // Above-line-rate and zero pushes clamp to [bw/100, bw].
        p.set_drain_bw(Bandwidth::gbps(400));
        assert_eq!(p.drain_bw(), Bandwidth::gbps(100));
        p.set_drain_bw(Bandwidth::bps(0));
        assert_eq!(p.drain_bw(), Bandwidth::gbps(1));
    }

    #[test]
    fn idle_tracks_in_flight() {
        let mut p = Port::from_spec(&spec());
        assert!(p.idle());
        p.in_flight = Some(data(64));
        assert!(!p.idle());
    }
}
