//! Scheme wiring: the switch-side features each scheme needs.
//!
//! Lives in the transport crate so every backend (packet, fluid
//! calibration harnesses, hybrid) wires schemes identically without
//! depending on the scenario layer. Switch-side wiring is driven entirely
//! by each policy's [`Registration`](fncc_cc::Registration), so adding a
//! scheme never touches this file.

use fncc_cc::{CcKind, IntNeed};
use fncc_des::time::TimeDelta;
use fncc_net::config::{EcnConfig, FabricConfig, IntInsertion, RoccSwitchConfig};
use fncc_net::units::Bandwidth;

/// Wire the switch-side features a CC scheme needs into a fabric config,
/// translating the policy's [`fncc_cc::Registration`] generically:
///
/// * `IntNeed::OnData` → switches stamp INT on data frames;
/// * `IntNeed::OnAck { refresh_us }` → INT on ACKs, with the periodic
///   All_INT_Table snapshot interval the policy requested (`None` = live
///   counter reads);
/// * `ecn` → RED/ECN marking with the DCQCN thresholds scaled to line rate;
/// * `rocc_rate` → the per-port PI fair-rate controller.
pub fn apply_cc_features(cfg: &mut FabricConfig, kind: CcKind, line: Bandwidth) {
    let reg = kind.registration();
    match reg.int {
        IntNeed::None => {}
        IntNeed::OnData => cfg.int = IntInsertion::OnData,
        IntNeed::OnAck { refresh_us } => {
            cfg.int = IntInsertion::OnAck;
            cfg.int_refresh = refresh_us.map(TimeDelta::from_us);
        }
    }
    if reg.ecn {
        cfg.ecn = EcnConfig::dcqcn_scaled(line);
    }
    if reg.rocc_rate {
        cfg.rocc = Some(RoccSwitchConfig::default_for(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::make_algo;

    #[test]
    fn make_algo_covers_all_kinds() {
        let line = Bandwidth::gbps(100);
        let rtt = TimeDelta::from_us(12);
        for kind in CcKind::ALL {
            assert_eq!(make_algo(kind, line, rtt).kind(), kind);
        }
    }

    #[test]
    fn apply_cc_features_wires_switch_side() {
        let line = Bandwidth::gbps(100);
        let mut cfg = FabricConfig::paper_default();
        apply_cc_features(&mut cfg, CcKind::Hpcc, line);
        assert_eq!(cfg.int, IntInsertion::OnData);
        let mut cfg = FabricConfig::paper_default();
        apply_cc_features(&mut cfg, CcKind::Fncc, line);
        assert_eq!(cfg.int, IntInsertion::OnAck);
        assert_eq!(cfg.int_refresh, Some(TimeDelta::from_us(1)));
        let mut cfg = FabricConfig::paper_default();
        apply_cc_features(&mut cfg, CcKind::Dcqcn, line);
        assert!(cfg.ecn.enabled);
        let mut cfg = FabricConfig::paper_default();
        apply_cc_features(&mut cfg, CcKind::Rocc, line);
        assert!(cfg.rocc.is_some());
    }

    #[test]
    fn features_follow_registrations_for_every_kind() {
        let line = Bandwidth::gbps(100);
        let base = FabricConfig::paper_default();
        for kind in CcKind::ALL {
            let mut cfg = FabricConfig::paper_default();
            apply_cc_features(&mut cfg, kind, line);
            let reg = kind.registration();
            match reg.int {
                IntNeed::None => assert_eq!(cfg.int, base.int, "{kind:?}"),
                IntNeed::OnData => assert_eq!(cfg.int, IntInsertion::OnData, "{kind:?}"),
                IntNeed::OnAck { .. } => assert_eq!(cfg.int, IntInsertion::OnAck, "{kind:?}"),
            }
            assert_eq!(cfg.ecn.enabled, reg.ecn || base.ecn.enabled, "{kind:?}");
            assert_eq!(cfg.rocc.is_some(), reg.rocc_rate, "{kind:?}");
        }
    }
}
