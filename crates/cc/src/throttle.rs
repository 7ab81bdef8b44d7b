//! Throttle — ECN throttling with progressive restoration (after
//! arXiv:2511.05149).
//!
//! Rate-based and deliberately minimal: the only congestion signal is the
//! CNP stream the receiver derives from ECN marks (the same plumbing DCQCN
//! uses — no α estimator, no byte counter):
//!
//! * **on CNP**: `R ← max(R · f, R_min)` — a fixed multiplicative throttle;
//! * **quiet periods** (timer ticks with no CNP) restore the rate
//!   additively by `R_AI`, escalating to `R_HAI` after `K` consecutive
//!   quiet periods — long-drained paths recover to line rate quickly while
//!   recently-marked flows creep.
//!
//! The scheme exists as a lower bound on signal richness: one bit in, one
//! multiplicative factor out. Its conformance numbers calibrate how much of
//! FNCC's advantage comes from telemetry (INT) rather than reaction speed.

use crate::datapath::{CcPolicy, Datapath, Measurements, Registration, Transmit};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::units::Bandwidth;

/// Throttle parameters.
#[derive(Clone, Debug)]
pub struct ThrottleConfig {
    /// Host line rate.
    pub line: Bandwidth,
    /// Multiplicative throttle factor f applied per CNP.
    pub factor: f64,
    /// Minimum rate clamp (bits/s).
    pub min_rate: f64,
    /// Quiet-period timer.
    pub timer: TimeDelta,
    /// Additive restoration step per quiet period (bits/s).
    pub rai: f64,
    /// Escalated restoration step (bits/s).
    pub rhai: f64,
    /// Consecutive quiet periods before escalating to `rhai`.
    pub escalate_after: u32,
}

impl ThrottleConfig {
    /// Defaults: f = 0.5, 55 µs periods, R_AI = line/500 with 10× hyper
    /// step after 5 quiet periods.
    pub fn paper_default(line: Bandwidth) -> Self {
        let rai = line.as_f64() / 500.0;
        ThrottleConfig {
            line,
            factor: 0.5,
            min_rate: 1e6,
            timer: TimeDelta::from_us(55),
            rai,
            rhai: 10.0 * rai,
            escalate_after: 5,
        }
    }
}

/// Throttle's law state (the current rate lives in the datapath).
#[derive(Clone, Debug)]
pub struct ThrottlePolicy {
    cfg: ThrottleConfig,
    /// Consecutive CNP-free timer periods.
    quiet_periods: u32,
    /// Set when a CNP arrived during the current timer period.
    cnp_in_period: bool,
    /// Time of last throttle (diagnostics).
    pub last_throttle: Option<SimTime>,
}

/// Per-flow Throttle state: the policy mounted on the shared datapath.
pub type ThrottleFlow = Datapath<ThrottlePolicy>;

impl ThrottlePolicy {
    /// Law state for a fresh flow (starts unthrottled at line rate).
    pub fn new(cfg: ThrottleConfig) -> Self {
        ThrottlePolicy {
            cfg,
            quiet_periods: 0,
            cnp_in_period: false,
            last_throttle: None,
        }
    }

    /// Consecutive quiet periods so far (tests).
    #[inline]
    pub fn quiet_periods(&self) -> u32 {
        self.quiet_periods
    }
}

impl CcPolicy for ThrottlePolicy {
    /// Throttle needs RED/ECN marking at switches, like DCQCN.
    const REGISTRATION: Registration = Registration {
        ecn: true,
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        Transmit::rate_based(self.cfg.line.as_f64(), self.cfg.line)
    }

    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        if let Measurements::Cnp { now } = m {
            xmit.set_rate((xmit.rate_bps() * self.cfg.factor).max(self.cfg.min_rate));
            self.quiet_periods = 0;
            self.cnp_in_period = true;
            self.last_throttle = Some(*now);
        }
    }

    /// Quiet-period driver: each CNP-free period restores some rate.
    fn tick(&mut self, xmit: &mut Transmit, _now: SimTime) -> Option<TimeDelta> {
        if self.cnp_in_period {
            self.cnp_in_period = false;
        } else {
            self.quiet_periods += 1;
            let step = if self.quiet_periods > self.cfg.escalate_after {
                self.cfg.rhai
            } else {
                self.cfg.rai
            };
            xmit.set_rate((xmit.rate_bps() + step).min(self.cfg.line.as_f64()));
        }
        Some(self.cfg.timer)
    }

    fn initial_tick(&self) -> Option<TimeDelta> {
        Some(self.cfg.timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> ThrottleFlow {
        Datapath::new(ThrottlePolicy::new(ThrottleConfig::paper_default(
            Bandwidth::gbps(100),
        )))
    }

    fn tick(f: &mut ThrottleFlow, now: SimTime) -> TimeDelta {
        f.tick(now).expect("Throttle is timer-driven")
    }

    #[test]
    fn starts_at_line_rate() {
        let f = flow();
        assert_eq!(f.pacing_rate_bps(), 100e9);
        assert!(f.initial_tick().is_some());
    }

    #[test]
    fn cnp_halves_rate() {
        let mut f = flow();
        f.on_cnp(SimTime::from_us(1));
        assert_eq!(f.pacing_rate_bps(), 50e9);
        f.on_cnp(SimTime::from_us(60));
        assert_eq!(f.pacing_rate_bps(), 25e9);
        assert_eq!(f.last_throttle, Some(SimTime::from_us(60)));
    }

    #[test]
    fn rate_respects_floor() {
        let mut f = flow();
        for k in 0..100 {
            f.on_cnp(SimTime::from_us(k * 50));
        }
        assert_eq!(f.pacing_rate_bps(), 1e6);
    }

    #[test]
    fn quiet_periods_restore_additively_then_escalate() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO); // 50G
        let mut now = SimTime::ZERO;
        now += tick(&mut f, now); // clears the CNP flag, no restore
        assert_eq!(f.pacing_rate_bps(), 50e9);
        // First 5 quiet periods: +rai (= 0.2 G) each.
        for _ in 0..5 {
            now += tick(&mut f, now);
        }
        assert!((f.pacing_rate_bps() - 51e9).abs() < 1e6);
        assert_eq!(f.quiet_periods(), 5);
        // Sixth onwards: +rhai (= 2 G).
        now += tick(&mut f, now);
        assert!((f.pacing_rate_bps() - 53e9).abs() < 1e6);
    }

    #[test]
    fn cnp_resets_escalation() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += tick(&mut f, now);
        }
        assert!(f.quiet_periods() > 5);
        f.on_cnp(now);
        assert_eq!(f.quiet_periods(), 0);
    }

    #[test]
    fn restoration_caps_at_line_rate() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..2000 {
            now += tick(&mut f, now);
            assert!(f.pacing_rate_bps() <= 100e9);
        }
        assert_eq!(f.pacing_rate_bps(), 100e9);
    }
}
