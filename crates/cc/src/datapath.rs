//! The generic congestion-control datapath.
//!
//! CCP-style split (see `generic-cong-avoid`): a scheme is a small *policy*
//! struct holding only its control-law state, mounted on a shared
//! [`Datapath`] that owns everything every scheme needs —
//!
//! * the published per-flow transmit state ([`Transmit`]: window and/or
//!   pacing rate, with the window→rate pacing derivation in one place),
//! * measurement delivery (ACK and CNP events arrive as one uniform
//!   [`Measurements`] view),
//! * tick scheduling for timer-driven schemes,
//! * a [`Registration`] describing the fabric features the scheme needs
//!   (INT insertion mode, ECN marking, RoCC fair-rate echo), so the
//!   transport layer wires switches generically instead of keeping a
//!   per-scheme match.
//!
//! Adding a scheme means writing one policy struct (~100 LoC: config,
//! law, `Registration`) and adding its line to the crate's `schemes!`
//! table, which derives `CcKind`, `CcAlgo`, `CcFlow` and `make_algo`; the
//! compiler then asks for its one `RateModel::paper_default` arm (every
//! fluid and hybrid constant of the scheme). The transport host, every
//! simulation backend, calibration, and the conformance matrices pick it up from
//! there.

use crate::ack::AckView;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::units::Bandwidth;

/// INT telemetry a scheme consumes, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntNeed {
    /// No in-band telemetry (delay/ECN/fair-rate schemes).
    None,
    /// Switches stamp INT onto *data* frames; the receiver echoes the
    /// stack in ACKs (HPCC's original path).
    OnData,
    /// Switches stamp INT onto *ACK* frames directly — the FNCC return
    /// path, fresher by up to one RTT. The stack arrives in return-path
    /// order and is reversed before the law runs.
    OnAck {
        /// Periodic `All_INT_Table` snapshot interval in microseconds
        /// (`None` = live counter reads).
        refresh_us: Option<u64>,
    },
}

/// The fabric features a scheme needs, declared by its policy. The
/// transport layer translates this into switch configuration generically —
/// there is no per-scheme wiring match anywhere outside the policy itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Registration {
    /// In-band telemetry mode.
    pub int: IntNeed,
    /// RED/ECN marking at switches (receiver turns marks into CNPs).
    pub ecn: bool,
    /// Switch-computed RoCC fair rate picked up by data frames and echoed
    /// in ACKs.
    pub rocc_rate: bool,
}

impl Registration {
    /// A scheme needing nothing from the fabric (pure end-to-end law).
    pub const NONE: Registration = Registration {
        int: IntNeed::None,
        ecn: false,
        rocc_rate: false,
    };
}

/// One measurement event, delivered uniformly to every policy.
///
/// ACKs carry the full normalised measurement set ([`AckView`]: cumulative
/// seq, newly acked bytes, request-path-ordered INT, receiver flow count,
/// RoCC fair rate, RTT sample); CNPs carry only their arrival time.
#[derive(Debug)]
pub enum Measurements<'a> {
    /// A (possibly cumulative) acknowledgment.
    Ack(&'a AckView<'a>),
    /// A congestion-notification packet (ECN mark echo).
    Cnp {
        /// Arrival time at the sender.
        now: SimTime,
    },
}

/// Published per-flow transmit state, owned by the [`Datapath`].
///
/// Window-based schemes keep their window here and the datapath derives
/// the pacing rate as `window · 8 / pace_over` (capped at line rate) —
/// the one pacing law shared by HPCC, FNCC, Swift, and FairQ. Rate-based
/// schemes set the pacing rate directly.
#[derive(Clone, Debug)]
pub struct Transmit {
    line_bps: f64,
    /// Window in bytes; `None` for rate-based schemes.
    window: Option<f64>,
    /// Seconds one window's worth of bytes is paced over (the scheme's
    /// RTT constant: base RTT for HPCC/FNCC/FairQ, target delay for Swift).
    pace_over_secs: f64,
    rate_bps: f64,
}

impl Transmit {
    /// Window-based transmit state: pacing follows the window.
    pub fn windowed(window: f64, pace_over: TimeDelta, line: Bandwidth) -> Self {
        let mut t = Transmit {
            line_bps: line.as_f64(),
            window: None,
            pace_over_secs: pace_over.as_secs_f64(),
            rate_bps: 0.0,
        };
        t.window = Some(window);
        t.rate_bps = (window * 8.0 / t.pace_over_secs).min(t.line_bps);
        t
    }

    /// Rate-based transmit state: the policy drives the rate directly.
    pub fn rate_based(rate_bps: f64, line: Bandwidth) -> Self {
        Transmit {
            line_bps: line.as_f64(),
            window: None,
            pace_over_secs: 0.0,
            rate_bps,
        }
    }

    /// Sending-window limit in bytes, if window-based.
    #[inline]
    pub fn window(&self) -> Option<f64> {
        self.window
    }

    /// Publish a new window; the pacing rate follows (`w·8/pace_over`,
    /// capped at line rate). Clamping to the scheme's window bounds is the
    /// policy's job — bounds are part of the control law.
    #[inline]
    pub fn set_window(&mut self, w: f64) {
        debug_assert!(self.window.is_some(), "set_window on a rate-based flow");
        self.window = Some(w);
        self.rate_bps = (w * 8.0 / self.pace_over_secs).min(self.line_bps);
    }

    /// Current pacing rate in bits/s.
    #[inline]
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Publish a new pacing rate (rate-based schemes).
    #[inline]
    pub fn set_rate(&mut self, rate_bps: f64) {
        debug_assert!(
            self.window.is_none(),
            "set_rate on a window-based flow (set_window derives the rate)"
        );
        self.rate_bps = rate_bps;
    }

    /// Host line rate in bits/s (the universal upper bound).
    #[inline]
    pub fn line_bps(&self) -> f64 {
        self.line_bps
    }
}

/// A congestion-control law over the shared datapath.
///
/// Implementations hold *only* law state (reference windows, EWMA filters,
/// α estimates, …); the published window/rate lives in [`Transmit`]. All
/// methods except [`CcPolicy::on_signal`] have no-op defaults — only
/// timer-driven schemes override the tick pair, only byte-counter schemes
/// override `on_sent`.
pub trait CcPolicy: Clone + core::fmt::Debug {
    /// Fabric features the scheme needs.
    const REGISTRATION: Registration;

    /// Transmit state of a fresh flow (initial window/rate).
    fn initial(&self) -> Transmit;

    /// React to one measurement event (ACK or CNP).
    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>);

    /// Account transmitted payload bytes (byte-counter stage drivers).
    fn on_sent(&mut self, _xmit: &mut Transmit, _bytes: u64) {}

    /// Periodic timer; returns the next tick delay if the scheme is
    /// timer-driven.
    fn tick(&mut self, _xmit: &mut Transmit, _now: SimTime) -> Option<TimeDelta> {
        None
    }

    /// A retransmission timeout fired: the network lost (at least) a full
    /// window's worth of feedback, the strongest congestion/failure signal
    /// a sender can see. The default collapses the transmit state to its
    /// floor — one MTU of window, or 1% of line rate — which every scheme's
    /// law then grows back from via its normal signals. Schemes with a
    /// different loss response override this.
    fn on_timeout(&mut self, xmit: &mut Transmit, _now: SimTime) {
        if xmit.window().is_some() {
            xmit.set_window(1518.0);
        } else {
            xmit.set_rate(xmit.line_bps() / 100.0);
        }
    }

    /// Initial tick delay, if the scheme is timer-driven.
    fn initial_tick(&self) -> Option<TimeDelta> {
        None
    }

    /// How many times the Last-Hop Congestion Speedup fired, for schemes
    /// that run it (FNCC); `None` for the rest.
    fn lhcs_triggers(&self) -> Option<u64> {
        None
    }
}

/// The shared per-flow state machine: a policy mounted on its transmit
/// state. This is what the `CcFlow` enum variants wrap — the transport
/// host talks to `Datapath` methods only and never sees scheme internals.
///
/// `Deref`s to the policy so diagnostics (`lhcs_triggers`, `u()`, `α`)
/// stay reachable without widening the shared API.
#[derive(Clone, Debug)]
pub struct Datapath<P: CcPolicy> {
    policy: P,
    xmit: Transmit,
}

impl<P: CcPolicy> Datapath<P> {
    /// Mount a policy on a fresh flow's transmit state.
    pub fn new(policy: P) -> Self {
        let xmit = policy.initial();
        Datapath { policy, xmit }
    }

    /// Sending-window limit in bytes, if the scheme is window-based.
    #[inline]
    pub fn window_bytes(&self) -> Option<f64> {
        self.xmit.window()
    }

    /// Pacing rate in bits/s.
    #[inline]
    pub fn pacing_rate_bps(&self) -> f64 {
        self.xmit.rate_bps()
    }

    /// Deliver an acknowledgment (INT already normalised to request-path
    /// order).
    #[inline]
    pub fn on_ack(&mut self, ack: &AckView<'_>) {
        self.policy
            .on_signal(&mut self.xmit, &Measurements::Ack(ack));
    }

    /// Deliver a congestion-notification packet.
    #[inline]
    pub fn on_cnp(&mut self, now: SimTime) {
        self.policy
            .on_signal(&mut self.xmit, &Measurements::Cnp { now });
    }

    /// Account transmitted payload bytes.
    #[inline]
    pub fn on_sent(&mut self, bytes: u64) {
        self.policy.on_sent(&mut self.xmit, bytes);
    }

    /// Deliver a retransmission timeout (go-back-N recovery rewound the
    /// flow; see [`CcPolicy::on_timeout`]).
    #[inline]
    pub fn on_timeout(&mut self, now: SimTime) {
        self.policy.on_timeout(&mut self.xmit, now);
    }

    /// Periodic CC tick; returns the delay until the next tick if the
    /// scheme needs one.
    #[inline]
    pub fn tick(&mut self, now: SimTime) -> Option<TimeDelta> {
        self.policy.tick(&mut self.xmit, now)
    }

    /// Initial tick delay, if the scheme is timer-driven.
    #[inline]
    pub fn initial_tick(&self) -> Option<TimeDelta> {
        self.policy.initial_tick()
    }

    /// The mounted policy (law-specific diagnostics).
    #[inline]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The published transmit state.
    #[inline]
    pub fn transmit(&self) -> &Transmit {
        &self.xmit
    }
}

impl<P: CcPolicy> core::ops::Deref for Datapath<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.policy
    }
}

impl<P: CcPolicy> core::ops::DerefMut for Datapath<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_transmit_derives_pacing() {
        // 150 KB over 12 µs = 100 Gb/s exactly at the cap.
        let t = Transmit::windowed(150_000.0, TimeDelta::from_us(12), Bandwidth::gbps(100));
        assert_eq!(t.window(), Some(150_000.0));
        assert!((t.rate_bps() - 100e9).abs() < 1.0);
        let mut t = t;
        t.set_window(75_000.0);
        assert!((t.rate_bps() - 50e9).abs() / 50e9 < 1e-9);
    }

    #[test]
    fn pacing_is_monotone_in_window() {
        let mut t = Transmit::windowed(1518.0, TimeDelta::from_us(12), Bandwidth::gbps(100));
        let mut prev = 0.0;
        for k in 1..200 {
            t.set_window(1518.0 * k as f64);
            assert!(t.rate_bps() >= prev, "pacing must not drop as W grows");
            assert!(t.rate_bps() <= t.line_bps());
            prev = t.rate_bps();
        }
    }

    #[test]
    fn rate_based_transmit_has_no_window() {
        let mut t = Transmit::rate_based(100e9, Bandwidth::gbps(100));
        assert_eq!(t.window(), None);
        t.set_rate(5e9);
        assert_eq!(t.rate_bps(), 5e9);
    }
}
