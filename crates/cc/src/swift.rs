//! Swift (SIGCOMM'20) — target-delay congestion control. Extension baseline.
//!
//! Window-based: the sender compares each RTT sample with a target delay;
//! below target it grows the congestion window additively (per acked byte),
//! above target it applies a multiplicative decrease proportional to the
//! overshoot, at most once per RTT. Pacing follows `cwnd / target` — the
//! shared datapath pacing law with the target delay as the pace interval.
//!
//! This is the simplified fabric-delay form (no per-hop scaling of the
//! target), adequate for the ablation role it plays here.

use crate::datapath::{CcPolicy, Datapath, Measurements, Registration, Transmit};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::units::Bandwidth;

/// Swift parameters.
#[derive(Clone, Debug)]
pub struct SwiftConfig {
    /// Host line rate.
    pub line: Bandwidth,
    /// Base (uncongested) RTT.
    pub base_rtt: TimeDelta,
    /// Target end-to-end delay.
    pub target: TimeDelta,
    /// Additive increase per RTT, in bytes.
    pub ai_bytes: f64,
    /// Multiplicative decrease gain β.
    pub beta: f64,
    /// Maximum fraction the window may shrink per decrease.
    pub max_mdf: f64,
    /// Minimum window (bytes).
    pub min_cwnd: f64,
}

impl SwiftConfig {
    /// Defaults: target = 1.25 × base RTT, one-MTU additive step.
    pub fn paper_default(line: Bandwidth, base_rtt: TimeDelta) -> Self {
        SwiftConfig {
            line,
            base_rtt,
            target: base_rtt + TimeDelta::from_ps(base_rtt.as_ps() / 4),
            ai_bytes: 1518.0,
            beta: 0.8,
            max_mdf: 0.5,
            min_cwnd: 1518.0,
        }
    }

    /// Line-rate BDP at the base RTT (initial window).
    pub fn bdp(&self) -> f64 {
        self.line.as_f64() / 8.0 * self.base_rtt.as_secs_f64()
    }
}

/// Swift's law state (the congestion window lives in the datapath).
#[derive(Clone, Debug)]
pub struct SwiftPolicy {
    cfg: SwiftConfig,
    last_decrease: SimTime,
}

/// Per-flow Swift state: the policy mounted on the shared datapath.
pub type SwiftFlow = Datapath<SwiftPolicy>;

impl SwiftPolicy {
    /// Law state for a fresh flow.
    pub fn new(cfg: SwiftConfig) -> Self {
        SwiftPolicy {
            cfg,
            last_decrease: SimTime::ZERO,
        }
    }
}

impl CcPolicy for SwiftPolicy {
    /// Pure end-to-end delay law — nothing needed from the fabric.
    const REGISTRATION: Registration = Registration::NONE;

    fn initial(&self) -> Transmit {
        Transmit::windowed(self.cfg.bdp(), self.cfg.target, self.cfg.line)
    }

    /// Process one delay sample.
    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        let Measurements::Ack(ack) = m else {
            return;
        };
        let delay = ack.rtt.as_secs_f64();
        let target = self.cfg.target.as_secs_f64();
        let mut cwnd = xmit.window().expect("Swift is window-based");
        if delay <= target {
            // Additive increase, spread across the window's worth of ACKs.
            let acked = ack.newly_acked.max(1) as f64;
            cwnd += self.cfg.ai_bytes * acked / cwnd.max(1.0);
        } else if ack.now.since(self.last_decrease) >= ack.rtt {
            let overshoot = (delay - target) / delay;
            let factor = (1.0 - self.cfg.beta * overshoot).max(1.0 - self.cfg.max_mdf);
            cwnd *= factor;
            self.last_decrease = ack.now;
        }
        xmit.set_window(cwnd.clamp(self.cfg.min_cwnd, self.cfg.bdp() * 2.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::AckView;

    fn cfg() -> SwiftConfig {
        SwiftConfig::paper_default(Bandwidth::gbps(100), TimeDelta::from_us(12))
    }

    fn flow() -> SwiftFlow {
        Datapath::new(SwiftPolicy::new(cfg()))
    }

    fn window(f: &SwiftFlow) -> f64 {
        f.window_bytes().expect("Swift is window-based")
    }

    fn ack(now_us: u64, rtt_us: f64) -> AckView<'static> {
        AckView {
            now: SimTime::from_us(now_us),
            seq: 0,
            snd_nxt: 0,
            newly_acked: 1456,
            int: &[],
            concurrent_flows: 0,
            rocc_rate: f64::INFINITY,
            rtt: TimeDelta::from_ps((rtt_us * 1e6) as u64),
        }
    }

    #[test]
    fn starts_at_bdp() {
        let f = flow();
        assert!((window(&f) - 150_000.0).abs() < 1.0);
    }

    #[test]
    fn over_target_delay_shrinks_window_once_per_rtt() {
        let mut f = flow();
        let w0 = window(&f);
        // now=100us, rtt=60us: 100 − 0 ≥ 60 → decrease allowed.
        f.on_ack(&ack(100, 60.0));
        let w1 = window(&f);
        assert!(w1 < w0);
        // 1us later (< one RTT), another bad sample must NOT shrink again.
        f.on_ack(&ack(101, 60.0));
        assert_eq!(window(&f), w1);
        // After an RTT has passed, it may.
        f.on_ack(&ack(200, 60.0));
        assert!(window(&f) < w1);
    }

    #[test]
    fn under_target_grows() {
        let mut f = flow();
        for k in 0..50 {
            f.on_ack(&ack(100 + k, 60.0));
        }
        let low = window(&f);
        for k in 0..2000 {
            f.on_ack(&ack(1000 + k, 12.0));
        }
        assert!(window(&f) > low);
    }

    #[test]
    fn decrease_bounded_by_max_mdf() {
        let mut f = flow();
        let w0 = window(&f);
        f.on_ack(&ack(50, 100_000.0)); // absurd delay
        assert!(window(&f) >= w0 * 0.5 - 1.0, "shrank more than max_mdf");
    }

    #[test]
    fn window_respects_min() {
        let mut f = flow();
        for k in 0..200 {
            f.on_ack(&ack(100 + 100 * k, 10_000.0));
        }
        assert!(window(&f) >= 1518.0);
    }
}
