//! RoCC (CoNEXT'20) sender side.
//!
//! RoCC is *switch-driven*: a PI controller at each switch port computes a
//! fair rate from the queue depth (see `fncc_net::switch::Switch::rocc_step`);
//! data frames pick up the minimum fair rate along their path and the
//! receiver echoes it in ACKs. The sender simply adopts the advertised rate
//! — all control intelligence lives in the network, so the policy is
//! stateless beyond its configuration.

use crate::datapath::{CcPolicy, Datapath, Measurements, Registration, Transmit};
use fncc_net::units::Bandwidth;

/// RoCC sender parameters.
#[derive(Clone, Debug)]
pub struct RoccConfig {
    /// Host line rate (initial and maximum rate).
    pub line: Bandwidth,
}

impl RoccConfig {
    /// Sender config for a line rate (RoCC's sender side has no tunables —
    /// the switch PI controller holds them all).
    pub fn paper_default(line: Bandwidth) -> Self {
        RoccConfig { line }
    }
}

/// RoCC's law state: nothing but the configuration.
#[derive(Clone, Debug)]
pub struct RoccPolicy {
    cfg: RoccConfig,
}

/// Per-flow RoCC state: the policy mounted on the shared datapath.
pub type RoccFlow = Datapath<RoccPolicy>;

impl RoccPolicy {
    /// Law state for a fresh flow.
    pub fn new(cfg: RoccConfig) -> Self {
        RoccPolicy { cfg }
    }
}

impl CcPolicy for RoccPolicy {
    /// RoCC needs the switch PI controller's fair rate echoed in ACKs.
    const REGISTRATION: Registration = Registration {
        rocc_rate: true,
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        Transmit::rate_based(self.cfg.line.as_f64(), self.cfg.line)
    }

    /// Adopt the advertised fair rate from the ACK.
    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        if let Measurements::Ack(ack) = m {
            if ack.rocc_rate.is_finite() {
                xmit.set_rate(ack.rocc_rate.clamp(0.0, self.cfg.line.as_f64()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::AckView;
    use fncc_des::time::{SimTime, TimeDelta};

    fn ack(rate: f64) -> AckView<'static> {
        AckView {
            now: SimTime::from_us(1),
            seq: 0,
            snd_nxt: 0,
            newly_acked: 0,
            int: &[],
            concurrent_flows: 0,
            rocc_rate: rate,
            rtt: TimeDelta::from_us(12),
        }
    }

    fn flow() -> RoccFlow {
        Datapath::new(RoccPolicy::new(RoccConfig::paper_default(Bandwidth::gbps(
            100,
        ))))
    }

    #[test]
    fn adopts_advertised_rate() {
        let mut f = flow();
        assert_eq!(f.pacing_rate_bps(), 100e9);
        f.on_ack(&ack(30e9));
        assert_eq!(f.pacing_rate_bps(), 30e9);
    }

    #[test]
    fn ignores_unset_rate() {
        let mut f = flow();
        f.on_ack(&ack(40e9));
        f.on_ack(&ack(f64::INFINITY));
        assert_eq!(f.pacing_rate_bps(), 40e9);
    }

    #[test]
    fn clamps_to_line_rate() {
        let mut f = flow();
        f.on_ack(&ack(500e9));
        assert_eq!(f.pacing_rate_bps(), 100e9);
    }
}
