//! Timely (SIGCOMM'15) — RTT-gradient rate control. Extension baseline.
//!
//! Classic delay-based scheme the FNCC paper cites in §6: the sender tracks
//! an EWMA of RTT differences; a positive normalised gradient signals queue
//! growth and triggers multiplicative decrease, a negative gradient lets the
//! rate climb additively. Hard thresholds `t_low`/`t_high` bypass the
//! gradient for very small/large RTTs.
//!
//! Thresholds are expressed relative to the topology's base RTT so the
//! algorithm works across the paper's 12 µs dumbbells and deeper fat-trees
//! (the original paper's absolute 50/500 µs values assume much larger
//! networks).

use crate::datapath::{CcPolicy, Datapath, Measurements, Registration, Transmit};
use fncc_des::time::TimeDelta;
use fncc_net::units::Bandwidth;

/// Timely parameters.
#[derive(Clone, Debug)]
pub struct TimelyConfig {
    /// Host line rate.
    pub line: Bandwidth,
    /// Minimum (propagation-only) RTT.
    pub min_rtt: TimeDelta,
    /// Below this RTT: unconditional additive increase.
    pub t_low: TimeDelta,
    /// Above this RTT: unconditional multiplicative decrease.
    pub t_high: TimeDelta,
    /// EWMA weight for RTT differences.
    pub ewma_alpha: f64,
    /// Multiplicative-decrease factor β.
    pub beta: f64,
    /// Additive step δ (bits/s).
    pub delta: f64,
}

impl TimelyConfig {
    /// Defaults scaled to the topology's base RTT.
    pub fn paper_default(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        TimelyConfig {
            line,
            min_rtt: base_rtt,
            t_low: base_rtt + TimeDelta::from_ps(base_rtt.as_ps() / 10),
            t_high: base_rtt * 3,
            ewma_alpha: 0.3,
            beta: 0.8,
            delta: line.as_f64() / 100.0,
        }
    }
}

/// Timely's law state (the current rate lives in the datapath).
#[derive(Clone, Debug)]
pub struct TimelyPolicy {
    cfg: TimelyConfig,
    prev_rtt: Option<TimeDelta>,
    rtt_diff: f64, // seconds
}

/// Per-flow Timely state: the policy mounted on the shared datapath.
pub type TimelyFlow = Datapath<TimelyPolicy>;

impl TimelyPolicy {
    /// Law state for a fresh flow.
    pub fn new(cfg: TimelyConfig) -> Self {
        TimelyPolicy {
            cfg,
            prev_rtt: None,
            rtt_diff: 0.0,
        }
    }
}

impl CcPolicy for TimelyPolicy {
    /// Pure end-to-end delay law — nothing needed from the fabric.
    const REGISTRATION: Registration = Registration::NONE;

    fn initial(&self) -> Transmit {
        Transmit::rate_based(self.cfg.line.as_f64(), self.cfg.line)
    }

    /// Process one RTT sample from an ACK.
    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        let Measurements::Ack(ack) = m else {
            return;
        };
        let rtt = ack.rtt;
        let Some(prev) = self.prev_rtt.replace(rtt) else {
            return;
        };
        let new_diff = rtt.as_secs_f64() - prev.as_secs_f64();
        let a = self.cfg.ewma_alpha;
        self.rtt_diff = (1.0 - a) * self.rtt_diff + a * new_diff;
        let gradient = self.rtt_diff / self.cfg.min_rtt.as_secs_f64();

        let mut rate = xmit.rate_bps();
        if rtt < self.cfg.t_low {
            rate += self.cfg.delta;
        } else if rtt > self.cfg.t_high {
            let shrink =
                1.0 - self.cfg.beta * (1.0 - self.cfg.t_high.as_secs_f64() / rtt.as_secs_f64());
            rate *= shrink;
        } else if gradient <= 0.0 {
            rate += self.cfg.delta;
        } else {
            rate *= 1.0 - self.cfg.beta * gradient.min(1.0);
        }
        xmit.set_rate(rate.clamp(self.cfg.line.as_f64() / 1000.0, self.cfg.line.as_f64()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::AckView;
    use fncc_des::time::SimTime;

    fn cfg() -> TimelyConfig {
        TimelyConfig::paper_default(Bandwidth::gbps(100), TimeDelta::from_us(12))
    }

    fn flow() -> TimelyFlow {
        Datapath::new(TimelyPolicy::new(cfg()))
    }

    fn ack_rtt(us: f64) -> AckView<'static> {
        AckView {
            now: SimTime::ZERO,
            seq: 0,
            snd_nxt: 0,
            newly_acked: 1456,
            int: &[],
            concurrent_flows: 0,
            rocc_rate: f64::INFINITY,
            rtt: TimeDelta::from_ps((us * 1e6) as u64),
        }
    }

    #[test]
    fn rising_rtt_cuts_rate() {
        let mut f = flow();
        for k in 0..30 {
            f.on_ack(&ack_rtt(13.0 + k as f64)); // steadily rising queue
        }
        assert!(f.pacing_rate_bps() < 50e9, "rate {}", f.pacing_rate_bps());
    }

    #[test]
    fn low_rtt_grows_rate() {
        let mut f = flow();
        // Crash the rate, then feed base-RTT samples.
        for k in 0..30 {
            f.on_ack(&ack_rtt(13.0 + k as f64));
        }
        let low = f.pacing_rate_bps();
        for _ in 0..200 {
            f.on_ack(&ack_rtt(12.0));
        }
        assert!(
            f.pacing_rate_bps() > low,
            "no recovery: {} -> {}",
            low,
            f.pacing_rate_bps()
        );
    }

    #[test]
    fn very_high_rtt_triggers_md_even_with_flat_gradient() {
        let mut f = flow();
        for _ in 0..20 {
            f.on_ack(&ack_rtt(100.0)); // flat but way above t_high
        }
        assert!(f.pacing_rate_bps() < 30e9, "rate {}", f.pacing_rate_bps());
    }

    #[test]
    fn rate_stays_within_bounds() {
        let mut f = flow();
        for _ in 0..500 {
            f.on_ack(&ack_rtt(12.0));
            assert!(f.pacing_rate_bps() <= 100e9);
        }
        for k in 0..500 {
            f.on_ack(&ack_rtt(12.0 + (k % 97) as f64));
            assert!(f.pacing_rate_bps() >= 100e9 / 1000.0);
        }
    }
}
