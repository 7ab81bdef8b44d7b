//! DCQCN (SIGCOMM'15) — ECN/CNP-driven rate control.
//!
//! Switches RED-mark data frames; the receiver NIC emits at most one CNP per
//! flow per 50 µs while marked frames arrive; the sender reacts:
//!
//! * **on CNP**: `R_T ← R_C`, `R_C ← R_C·(1 − α/2)`, `α ← (1−g)α + g`,
//!   and both increase stages reset;
//! * **timer / byte-counter stages** drive recovery: *fast recovery*
//!   (`R_C ← (R_T + R_C)/2`) for the first `F` stages, then *additive*
//!   (`R_T += R_AI`), then *hyper* increase (`R_T += R_HAI`); α decays by
//!   `(1−g)` every timer period without a CNP.
//!
//! Rate-based: no window. `R_C` is the datapath's published pacing rate;
//! the policy keeps the target rate and stage machinery. Parameter defaults
//! follow the paper/Mellanox values, with `R_AI` scaled linearly with line
//! rate (40 Mb/s at 40 G → 100 Mb/s at 100 G) as deployments do.

use crate::datapath::{CcPolicy, Datapath, Measurements, Registration, Transmit};
use crate::CcKind;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::units::Bandwidth;

/// DCQCN parameters.
#[derive(Clone, Debug)]
pub struct DcqcnConfig {
    /// Host line rate.
    pub line: Bandwidth,
    /// EWMA gain g (1/16).
    pub g: f64,
    /// Alpha-decay / rate-increase timer period (55 µs).
    pub timer: TimeDelta,
    /// Byte counter granularity (10 MB).
    pub byte_counter: u64,
    /// Stage threshold F separating fast recovery from additive increase.
    pub f: u32,
    /// Additive increase step (bits/s).
    pub rai: f64,
    /// Hyper increase step (bits/s).
    pub rhai: f64,
    /// Minimum rate clamp (bits/s).
    pub min_rate: f64,
    /// Receiver-side minimum gap between CNPs of one flow (50 µs).
    pub cnp_interval: TimeDelta,
}

impl DcqcnConfig {
    /// Paper/Mellanox defaults, `R_AI` scaled with line rate.
    pub fn paper_default(line: Bandwidth) -> Self {
        let rai = line.as_f64() / 1000.0; // 100 Mb/s at 100 G
        DcqcnConfig {
            line,
            g: 1.0 / 16.0,
            timer: TimeDelta::from_us(55),
            byte_counter: 10 * 1024 * 1024,
            f: 5,
            rai,
            rhai: 10.0 * rai,
            min_rate: 1e6,
            cnp_interval: TimeDelta::from_us(50),
        }
    }
}

/// DCQCN's law state (the current rate `R_C` lives in the datapath).
#[derive(Clone, Debug)]
pub struct DcqcnPolicy {
    cfg: DcqcnConfig,
    /// Target rate R_T (bits/s).
    rt: f64,
    /// Congestion estimate α.
    alpha: f64,
    timer_stage: u32,
    byte_stage: u32,
    bytes_acc: u64,
    /// Set when a CNP arrived during the current timer period.
    cnp_in_period: bool,
    /// Time of last rate decrease (diagnostics).
    pub last_decrease: Option<SimTime>,
}

/// Per-flow DCQCN state: the policy mounted on the shared datapath.
pub type DcqcnFlow = Datapath<DcqcnPolicy>;

impl DcqcnPolicy {
    /// Law state for a fresh flow (rate starts at line — RoCE NICs start
    /// unthrottled).
    pub fn new(cfg: DcqcnConfig) -> Self {
        let line = cfg.line.as_f64();
        DcqcnPolicy {
            cfg,
            rt: line,
            alpha: 1.0,
            timer_stage: 0,
            byte_stage: 0,
            bytes_acc: 0,
            cnp_in_period: false,
            last_decrease: None,
        }
    }

    /// Congestion estimate α (diagnostics).
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Receiver-side CNP pacing interval.
    #[inline]
    pub fn cnp_interval(&self) -> TimeDelta {
        self.cfg.cnp_interval
    }

    /// React to a congestion-notification packet.
    fn on_cnp(&mut self, xmit: &mut Transmit, now: SimTime) {
        let rc = xmit.rate_bps();
        self.rt = rc;
        xmit.set_rate((rc * (1.0 - self.alpha / 2.0)).max(self.cfg.min_rate));
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.timer_stage = 0;
        self.byte_stage = 0;
        self.bytes_acc = 0;
        self.cnp_in_period = true;
        self.last_decrease = Some(now);
    }

    /// One rate-increase event (fast recovery / additive / hyper).
    fn increase(&mut self, xmit: &mut Transmit) {
        let f = self.cfg.f;
        if self.timer_stage >= f && self.byte_stage >= f {
            self.rt += self.cfg.rhai;
        } else if self.timer_stage >= f || self.byte_stage >= f {
            self.rt += self.cfg.rai;
        }
        // Fast recovery (both stages < F) leaves R_T untouched.
        self.rt = self.rt.min(self.cfg.line.as_f64());
        let rc = xmit.rate_bps();
        xmit.set_rate(((self.rt + rc) / 2.0).clamp(self.cfg.min_rate, self.cfg.line.as_f64()));
    }
}

impl CcPolicy for DcqcnPolicy {
    const KIND: CcKind = CcKind::Dcqcn;

    /// DCQCN needs RED/ECN marking at switches (the receiver turns marks
    /// into CNPs).
    const REGISTRATION: Registration = Registration {
        ecn: true,
        ..Registration::NONE
    };

    fn initial(&self) -> Transmit {
        Transmit::rate_based(self.cfg.line.as_f64(), self.cfg.line)
    }

    fn on_signal(&mut self, xmit: &mut Transmit, m: &Measurements<'_>) {
        if let Measurements::Cnp { now } = m {
            self.on_cnp(xmit, *now);
        }
    }

    /// Account transmitted bytes (byte-counter stage driver).
    fn on_sent(&mut self, xmit: &mut Transmit, bytes: u64) {
        self.bytes_acc += bytes;
        while self.bytes_acc >= self.cfg.byte_counter {
            self.bytes_acc -= self.cfg.byte_counter;
            self.byte_stage += 1;
            self.increase(xmit);
        }
    }

    /// Periodic timer: α decay plus a timer-stage increase event.
    fn tick(&mut self, xmit: &mut Transmit, _now: SimTime) -> Option<TimeDelta> {
        if self.cnp_in_period {
            // The CNP already reset the stages; α was bumped there.
            self.cnp_in_period = false;
        } else {
            self.alpha *= 1.0 - self.cfg.g;
            self.timer_stage += 1;
            self.increase(xmit);
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

    fn flow() -> DcqcnFlow {
        Datapath::new(DcqcnPolicy::new(DcqcnConfig::paper_default(
            Bandwidth::gbps(100),
        )))
    }

    fn tick(f: &mut DcqcnFlow, now: SimTime) -> TimeDelta {
        f.tick(now).expect("DCQCN is timer-driven")
    }

    #[test]
    fn starts_at_line_rate() {
        let f = flow();
        assert_eq!(f.pacing_rate_bps(), 100e9);
        assert_eq!(f.alpha(), 1.0);
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut f = flow();
        f.on_cnp(SimTime::from_us(1));
        // α = 1 → cut by α/2 = 50%; the α update (1−g)·1 + g keeps α at 1.
        assert!((f.pacing_rate_bps() - 50e9).abs() < 1e6);
        assert!((f.alpha() - 1.0).abs() < 1e-12);
        assert_eq!(f.last_decrease, Some(SimTime::from_us(1)));
    }

    #[test]
    fn cnp_after_decay_raises_alpha_back() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        now += tick(&mut f, now); // clear flag
        for _ in 0..10 {
            now += tick(&mut f, now); // α decays
        }
        let decayed = f.alpha();
        assert!(decayed < 0.6);
        f.on_cnp(now);
        assert!(f.alpha() > decayed, "CNP must push α towards 1");
    }

    #[test]
    fn repeated_cnps_keep_cutting() {
        let mut f = flow();
        for k in 0..10 {
            f.on_cnp(SimTime::from_us(k * 50));
        }
        assert!(
            f.pacing_rate_bps() < 10e9,
            "rate {} after 10 CNPs",
            f.pacing_rate_bps()
        );
        assert!(f.pacing_rate_bps() >= 1e6, "respects min rate");
    }

    #[test]
    fn fast_recovery_returns_towards_target() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO); // rc = 50G, rt = 100G
        let mut now = SimTime::ZERO;
        // First tick after the CNP only clears the flag.
        now += tick(&mut f, now);
        for _ in 0..4 {
            now += tick(&mut f, now);
        }
        // Fast recovery: rc → (rt+rc)/2 each event: 75, 87.5, 93.75, 96.9.
        assert!(f.pacing_rate_bps() > 90e9, "rate {}", f.pacing_rate_bps());
        assert!(f.pacing_rate_bps() < 100e9);
    }

    #[test]
    fn additive_increase_after_f_stages() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        now += tick(&mut f, now); // clears flag
        for _ in 0..20 {
            now += tick(&mut f, now);
        }
        // After F=5 timer stages the target starts creeping up by RAI and the
        // rate converges to line rate.
        assert!((f.pacing_rate_bps() - 100e9).abs() < 1e9);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO);
        let a0 = f.alpha();
        let mut now = SimTime::ZERO;
        now += tick(&mut f, now);
        for _ in 0..20 {
            now += tick(&mut f, now);
        }
        assert!(f.alpha() < a0 * 0.5, "alpha {} did not decay", f.alpha());
    }

    #[test]
    fn byte_counter_drives_stages() {
        let mut f = flow();
        f.on_cnp(SimTime::ZERO); // rc 50G
        let before = f.pacing_rate_bps();
        f.on_sent(10 * 1024 * 1024); // one byte-counter period
        assert!(
            f.pacing_rate_bps() > before,
            "byte stage must trigger an increase"
        );
    }

    #[test]
    fn rate_never_exceeds_line() {
        let mut f = flow();
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += tick(&mut f, now);
            f.on_sent(20 * 1024 * 1024);
            assert!(f.pacing_rate_bps() <= 100e9);
        }
    }

    #[test]
    fn alpha_approaches_g_under_sustained_cnps() {
        // With a CNP every period, α converges to 1 (fully congested);
        // with none it converges to 0. One CNP then decay: α < g bound.
        let mut f = flow();
        for k in 0..200 {
            f.on_cnp(SimTime::from_us(k * 55));
        }
        assert!(
            f.alpha() > 0.9,
            "α under sustained congestion: {}",
            f.alpha()
        );
    }
}
