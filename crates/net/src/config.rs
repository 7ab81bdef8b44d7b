//! Fabric-wide configuration: frame sizes, PFC, ECN, INT insertion mode,
//! the RoCC switch controller, and the injected fault list.

use crate::fault::FaultSpec;
use crate::units::{Bandwidth, ByteSize};
use fncc_des::time::TimeDelta;

/// Where switches insert INT records (the core difference between HPCC and
/// FNCC, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntInsertion {
    /// No INT (DCQCN, RoCC, Timely).
    None,
    /// HPCC: append the egress port's INT to every *data* frame.
    OnData,
    /// FNCC (Algorithm 1): append `All_INT_Table[ack.input_port]` to every
    /// *ACK* frame.
    OnAck,
}

/// Priority-flow-control configuration (§2.3; §5.1 uses a 500 KB threshold).
#[derive(Clone, Copy, Debug)]
pub struct PfcConfig {
    /// Per-ingress-port byte threshold that triggers XOFF.
    pub threshold: u64,
    /// Hysteresis: XON is sent when the counter falls below
    /// `threshold - resume_offset`.
    pub resume_offset: u64,
}

impl PfcConfig {
    /// The paper's setting: a 500 KB threshold.
    pub fn paper_default() -> Self {
        PfcConfig {
            threshold: ByteSize::kb(500).as_bytes(),
            resume_offset: 2 * 1518,
        }
    }
}

/// RED/ECN marking for DCQCN.
#[derive(Clone, Copy, Debug)]
pub struct EcnConfig {
    /// No marking below this egress queue depth (bytes).
    pub kmin: u64,
    /// Above this depth every frame is marked (bytes).
    pub kmax: u64,
    /// Marking probability at `kmax` (linear ramp from `kmin`).
    pub pmax: f64,
}

impl EcnConfig {
    /// DCQCN defaults scaled linearly with line rate, anchored at the
    /// commonly used 100 Gb/s values (Kmin = 100 KB, Kmax = 400 KB,
    /// Pmax = 0.2).
    pub fn dcqcn_scaled(line: Bandwidth) -> Self {
        let scale = line.as_f64() / 100e9;
        EcnConfig {
            kmin: (ByteSize::kb(100).as_bytes() as f64 * scale) as u64,
            kmax: (ByteSize::kb(400).as_bytes() as f64 * scale) as u64,
            pmax: 0.2,
        }
    }

    /// Marking probability at queue depth `q` bytes.
    pub fn mark_probability(&self, q: u64) -> f64 {
        if q < self.kmin {
            0.0
        } else if q >= self.kmax {
            1.0
        } else {
            self.pmax * (q - self.kmin) as f64 / (self.kmax - self.kmin) as f64
        }
    }
}

/// The RoCC switch-side PI controller computing a per-port fair rate.
#[derive(Clone, Copy, Debug)]
pub struct RoccSwitchConfig {
    /// Controller update period.
    pub period: TimeDelta,
    /// Queue set-point in bytes.
    pub qref: f64,
    /// Proportional gain (bits/s per byte of queue error).
    pub gain_p: f64,
    /// Integral-difference gain (bits/s per byte of queue delta).
    pub gain_d: f64,
    /// Lower clamp for the advertised rate (bits/s).
    pub min_rate: f64,
}

impl RoccSwitchConfig {
    /// Defaults tuned (like the published RoCC evaluation) for stability
    /// over speed: convergence on the order of a millisecond.
    pub fn default_for(line: Bandwidth) -> Self {
        let b = line.as_f64();
        RoccSwitchConfig {
            period: TimeDelta::from_us(20),
            qref: 50.0 * 1024.0,
            // Full-queue error moves the rate by ~1% of line rate per period.
            gain_p: b * 1e-7,
            gain_d: b * 5e-7,
            min_rate: b / 1000.0,
        }
    }
}

/// All switch/link level configuration for one simulation.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Maximum frame size in bytes, headers included (the paper: 1518).
    pub mtu: u32,
    /// Per-data-frame header overhead (Eth+IP+UDP+BTH+ICRC+FCS).
    pub data_header: u32,
    /// ACK frame size before INT records.
    pub ack_base: u32,
    /// Shared buffer per switch.
    pub buffer_bytes: u64,
    /// PFC settings; `None` runs lossy (frames drop at buffer exhaustion).
    pub pfc: Option<PfcConfig>,
    /// ECN marking settings; `None` marks nothing.
    pub ecn: Option<EcnConfig>,
    /// INT insertion mode.
    pub int: IntInsertion,
    /// `Some(d)`: `All_INT_Table` refreshed every `d` (Fig. 8's periodic
    /// update); `None`: table reads are live.
    pub int_refresh: Option<TimeDelta>,
    /// RoCC PI controller, if the RoCC scheme is active.
    pub rocc: Option<RoccSwitchConfig>,
    /// Injected faults, checked against the topology by [`crate::fault::validate`]
    /// when the fabric is built.
    pub faults: Vec<FaultSpec>,
    /// Master seed for all stochastic fabric components (ECN marking).
    pub seed: u64,
}

impl FabricConfig {
    /// Paper-style defaults; congestion-control specific fields (`int`,
    /// `ecn`, `rocc`) are set by the scenario layer.
    pub fn paper_default() -> Self {
        FabricConfig {
            mtu: 1518,
            data_header: crate::units::DATA_HEADER_BYTES,
            ack_base: crate::units::ACK_BASE_BYTES,
            buffer_bytes: ByteSize::mb(32).as_bytes(),
            pfc: Some(PfcConfig::paper_default()),
            ecn: None,
            int: IntInsertion::None,
            int_refresh: None,
            rocc: None,
            faults: Vec::new(),
            seed: 1,
        }
    }

    /// Application payload bytes carried by a full-size data frame.
    #[inline]
    pub fn mtu_payload(&self) -> u32 {
        self.mtu - self.data_header
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_payload() {
        let cfg = FabricConfig::paper_default();
        assert_eq!(cfg.mtu_payload(), 1518 - 62);
    }

    #[test]
    fn pfc_paper_default_is_500kb() {
        let p = FabricConfig::paper_default().pfc.unwrap();
        assert_eq!(p.threshold, 512_000);
        assert!(p.resume_offset > 0 && p.resume_offset < p.threshold);
    }

    #[test]
    fn ecn_probability_ramp() {
        let e = EcnConfig {
            kmin: 100,
            kmax: 300,
            pmax: 0.2,
        };
        assert_eq!(e.mark_probability(0), 0.0);
        assert_eq!(e.mark_probability(99), 0.0);
        assert_eq!(e.mark_probability(100), 0.0);
        assert!((e.mark_probability(200) - 0.1).abs() < 1e-12);
        assert_eq!(e.mark_probability(300), 1.0);
        assert_eq!(e.mark_probability(10_000), 1.0);
    }

    /// A switch under `ecn: None` marks nothing, however deep its queue.
    #[test]
    fn ecn_disabled_never_marks() {
        use crate::ids::{FlowId, HostId, SwitchId};
        use crate::{pool::PacketPool, switch::Switch, telemetry::Telemetry};
        use fncc_des::time::SimTime;

        let cfg = FabricConfig::paper_default();
        assert!(cfg.ecn.is_none());
        let topo = crate::topology::Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::ZERO);
        let mut sw = Switch::new(SwitchId(0), &topo.switches[0], &cfg);
        let (mut telem, mut pool, mut out, t0) = (
            Telemetry::new(),
            PacketPool::new(),
            Vec::new(),
            SimTime::ZERO,
        );
        for in_port in [0, 1].repeat(200) {
            let pkt = pool.data(FlowId(0), HostId(0), HostId(2), 0, 1456, 1518, t0);
            sw.on_arrive(t0, in_port, pkt, &cfg, &mut telem, &mut pool, &mut out);
        }
        // The uplink queue runs far past where DCQCN's profile marks every frame.
        assert!(sw.ports[2].queue_bytes > EcnConfig::dcqcn_scaled(Bandwidth::gbps(100)).kmax);
        assert_eq!(telem.counters.ecn_marks, 0);
    }

    #[test]
    fn ecn_scales_with_line_rate() {
        let e100 = EcnConfig::dcqcn_scaled(Bandwidth::gbps(100));
        let e400 = EcnConfig::dcqcn_scaled(Bandwidth::gbps(400));
        assert_eq!(e400.kmin, 4 * e100.kmin);
        assert_eq!(e400.kmax, 4 * e100.kmax);
    }

    #[test]
    fn rocc_defaults_scale() {
        let r = RoccSwitchConfig::default_for(Bandwidth::gbps(100));
        assert!(r.gain_p > 0.0 && r.gain_d > 0.0);
        assert!(r.min_rate < 100e9);
    }
}
