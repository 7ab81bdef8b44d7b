//! Fault injection: the one fault type, from scenario file to fabric and
//! fluid.
//!
//! A [`FaultSpec`] names a switch egress port and what happens to it.
//! The scenario layer parses it from JSON, [`validate`] checks a list of
//! them against the topology, the packet fabric ([`crate::fabric`])
//! schedules each fault's start and end as events, and the fluid engine
//! turns the same list into capacity boundaries. Nothing is lowered in
//! between: every engine reads this enum and matches it exhaustively, so a
//! new kind cannot reach one engine only.

use crate::ids::NodeRef;
use crate::topology::Topology;

/// One declarative fault on a switch egress port, checked against the
/// topology by [`validate`]. Times are simulation time in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// The inter-switch link behind `switch`'s egress `port` dies at
    /// `at_us`: queued and in-flight frames are destroyed, both directions
    /// are marked dead, and ECMP routing is rebuilt around it.
    LinkDown {
        /// Switch owning the egress port.
        switch: u32,
        /// Egress port index.
        port: u8,
        /// Failure time in µs.
        at_us: u64,
    },
    /// A previously-downed link is restored at `at_us` and rejoins routing.
    LinkUp {
        /// Switch owning the egress port.
        switch: u32,
        /// Egress port index.
        port: u8,
        /// Restoration time in µs.
        at_us: u64,
    },
    /// Over `[from_us, to_us)` the egress drain rate is multiplied by
    /// `rate_factor` and the propagation delay by `delay_factor` (a
    /// flapping optic or FEC-degraded link).
    LinkDegrade {
        /// Switch owning the egress port.
        switch: u32,
        /// Egress port index.
        port: u8,
        /// Degradation start in µs.
        from_us: u64,
        /// Degradation end in µs (original parameters restored).
        to_us: u64,
        /// Drain-rate multiplier, (0, 1].
        rate_factor: f64,
        /// Propagation-delay multiplier, ≥ 1.
        delay_factor: f64,
    },
    /// Over `[from_us, to_us)` each non-control frame leaving `port` is
    /// dropped with `probability`, drawn from the fabric-seeded per-switch
    /// RNG (same seed ⇒ same drops).
    RandomLoss {
        /// Switch owning the egress port.
        switch: u32,
        /// Egress port index.
        port: u8,
        /// Loss-window start in µs.
        from_us: u64,
        /// Loss-window end in µs.
        to_us: u64,
        /// Per-frame drop probability, (0, 1].
        probability: f64,
    },
    /// The egress `port` is force-paused (stuck PFC pause, §2.3's pause
    /// storm hazard) from `at_us` for `duration_us`. Frames survive; only
    /// the scheduler freezes.
    StuckPort {
        /// Switch owning the egress port.
        switch: u32,
        /// Egress port index.
        port: u8,
        /// Injection time in µs.
        at_us: u64,
        /// Pause duration in µs.
        duration_us: u64,
    },
}

impl FaultSpec {
    /// The faulted `(switch, port)` location.
    pub fn location(&self) -> (u32, u8) {
        match *self {
            FaultSpec::LinkDown { switch, port, .. }
            | FaultSpec::LinkUp { switch, port, .. }
            | FaultSpec::LinkDegrade { switch, port, .. }
            | FaultSpec::RandomLoss { switch, port, .. }
            | FaultSpec::StuckPort { switch, port, .. } => (switch, port),
        }
    }

    /// JSON kind tag.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultSpec::LinkDown { .. } => "link_down",
            FaultSpec::LinkUp { .. } => "link_up",
            FaultSpec::LinkDegrade { .. } => "link_degrade",
            FaultSpec::RandomLoss { .. } => "random_loss",
            FaultSpec::StuckPort { .. } => "stuck_port",
        }
    }
    /// When the fault takes effect and — for the three kinds that are
    /// windows — when it ends, in µs. A link down or up is one instant.
    pub fn span_us(&self) -> (u64, Option<u64>) {
        match *self {
            FaultSpec::LinkDown { at_us, .. } | FaultSpec::LinkUp { at_us, .. } => (at_us, None),
            FaultSpec::LinkDegrade { from_us, to_us, .. }
            | FaultSpec::RandomLoss { from_us, to_us, .. } => (from_us, Some(to_us)),
            FaultSpec::StuckPort {
                at_us, duration_us, ..
            } => (at_us, Some(at_us + duration_us)),
        }
    }
}

/// Validate the fault list against the topology: ports must exist,
/// down/up must target inter-switch links and alternate in time,
/// interval faults need well-formed windows and parameters, and
/// same-kind intervals on one port must not overlap (the fabric keeps
/// one saved baseline per degraded port).
pub fn validate(faults: &[FaultSpec], topo: &Topology) -> Result<(), String> {
    let n_sw = topo.switches.len() as u32;
    use std::collections::BTreeMap;
    // (t_us, is_down) per port; interval windows per port per kind.
    type Windows = BTreeMap<(u32, u8, &'static str), Vec<(u64, u64)>>;
    let mut updown: BTreeMap<(u32, u8), Vec<(u64, bool)>> = BTreeMap::new();
    let mut windows: Windows = BTreeMap::new();
    for f in faults {
        let (sw, port) = f.location();
        if sw >= n_sw {
            return Err(format!(
                "fault {} names switch {sw} but the topology has only {n_sw} switches",
                f.kind_name()
            ));
        }
        let ports = &topo.switches[sw as usize].ports;
        if port as usize >= ports.len() {
            return Err(format!(
                "fault {} names port {port} of switch {sw}, which has only {} ports",
                f.kind_name(),
                ports.len()
            ));
        }
        match f {
            FaultSpec::LinkDown { at_us, .. } | FaultSpec::LinkUp { at_us, .. } => {
                if !matches!(ports[port as usize].peer, NodeRef::Switch(_)) {
                    return Err(format!(
                        "{} on switch {sw} port {port}: that port faces a host — \
                         link down/up applies to inter-switch links only",
                        f.kind_name()
                    ));
                }
                updown
                    .entry((sw, port))
                    .or_default()
                    .push((*at_us, matches!(f, FaultSpec::LinkDown { .. })));
            }
            FaultSpec::LinkDegrade {
                from_us,
                to_us,
                rate_factor,
                delay_factor,
                ..
            } => {
                if *to_us <= *from_us {
                    return Err(format!(
                        "link_degrade on switch {sw} port {port}: window \
                         [{from_us}, {to_us}) µs is empty"
                    ));
                }
                if !(*rate_factor > 0.0 && *rate_factor <= 1.0) {
                    return Err(format!(
                        "link_degrade on switch {sw} port {port}: rate_factor \
                         {rate_factor} outside (0, 1]"
                    ));
                }
                if *delay_factor < 1.0 || !delay_factor.is_finite() {
                    return Err(format!(
                        "link_degrade on switch {sw} port {port}: delay_factor \
                         {delay_factor} below 1"
                    ));
                }
                windows
                    .entry((sw, port, "link_degrade"))
                    .or_default()
                    .push((*from_us, *to_us));
            }
            FaultSpec::RandomLoss {
                from_us,
                to_us,
                probability,
                ..
            } => {
                if *to_us <= *from_us {
                    return Err(format!(
                        "random_loss on switch {sw} port {port}: window \
                         [{from_us}, {to_us}) µs is empty"
                    ));
                }
                if !(*probability > 0.0 && *probability <= 1.0) {
                    return Err(format!(
                        "random_loss on switch {sw} port {port}: probability \
                         {probability} outside (0, 1]"
                    ));
                }
                windows
                    .entry((sw, port, "random_loss"))
                    .or_default()
                    .push((*from_us, *to_us));
            }
            FaultSpec::StuckPort { duration_us, .. } => {
                if *duration_us == 0 {
                    return Err(format!(
                        "stuck_port on switch {sw} port {port}: zero duration"
                    ));
                }
            }
        }
    }
    for ((sw, port), mut evs) in updown {
        evs.sort_unstable();
        for pair in evs.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(format!(
                    "switch {sw} port {port}: two link down/up transitions at \
                     the same time {} µs",
                    pair[0].0
                ));
            }
        }
        // Must alternate down, up, down, … starting with a down.
        for (i, (t, is_down)) in evs.iter().enumerate() {
            let expect_down = i % 2 == 0;
            if *is_down != expect_down {
                return Err(if expect_down {
                    format!(
                        "switch {sw} port {port}: link_up at {t} µs without a \
                         preceding link_down"
                    )
                } else {
                    format!(
                        "switch {sw} port {port}: link_down at {t} µs while the \
                         link is already down (missing link_up in between)"
                    )
                });
            }
        }
    }
    for ((sw, port, kind), mut ws) in windows {
        ws.sort_unstable();
        for pair in ws.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "switch {sw} port {port}: overlapping {kind} windows \
                     [{}, {}) and [{}, {}) µs",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;
    use fncc_des::time::TimeDelta;

    #[test]
    fn validate_rejects_malformed_specs() {
        // Fat-tree k=4: ToR 0 ports 0-1 face hosts, 2-3 are uplinks.
        let topo = Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let reject = |faults: Vec<FaultSpec>, needle: &str| {
            let err = validate(&faults, &topo).unwrap_err();
            assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
        };
        reject(
            vec![FaultSpec::LinkDown {
                switch: 99,
                port: 0,
                at_us: 0,
            }],
            "switch 99",
        );
        reject(
            vec![FaultSpec::LinkUp {
                switch: 0,
                port: 200,
                at_us: 0,
            }],
            "port 200",
        );
        // Port 0 of a ToR faces a host: down/up must be inter-switch.
        reject(
            vec![
                FaultSpec::LinkDown {
                    switch: 0,
                    port: 0,
                    at_us: 0,
                },
                FaultSpec::LinkUp {
                    switch: 0,
                    port: 0,
                    at_us: 10,
                },
            ],
            "faces a host",
        );
        reject(
            vec![FaultSpec::LinkUp {
                switch: 0,
                port: 2,
                at_us: 10,
            }],
            "without a preceding link_down",
        );
        reject(
            vec![
                FaultSpec::LinkDown {
                    switch: 0,
                    port: 2,
                    at_us: 10,
                },
                FaultSpec::LinkDown {
                    switch: 0,
                    port: 2,
                    at_us: 20,
                },
            ],
            "already down",
        );
        reject(
            vec![FaultSpec::RandomLoss {
                switch: 0,
                port: 2,
                from_us: 0,
                to_us: 100,
                probability: 1.5,
            }],
            "probability",
        );
        reject(
            vec![FaultSpec::LinkDegrade {
                switch: 0,
                port: 2,
                from_us: 100,
                to_us: 100,
                rate_factor: 0.5,
                delay_factor: 1.0,
            }],
            "empty",
        );
        reject(
            vec![FaultSpec::LinkDegrade {
                switch: 0,
                port: 2,
                from_us: 0,
                to_us: 100,
                rate_factor: 0.0,
                delay_factor: 1.0,
            }],
            "rate_factor",
        );
        reject(
            vec![
                FaultSpec::RandomLoss {
                    switch: 0,
                    port: 2,
                    from_us: 0,
                    to_us: 100,
                    probability: 0.1,
                },
                FaultSpec::RandomLoss {
                    switch: 0,
                    port: 2,
                    from_us: 50,
                    to_us: 150,
                    probability: 0.1,
                },
            ],
            "overlapping",
        );
        reject(
            vec![FaultSpec::StuckPort {
                switch: 0,
                port: 0,
                at_us: 0,
                duration_us: 0,
            }],
            "zero duration",
        );
    }
}
