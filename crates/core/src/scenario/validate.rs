//! [`Scenario::validate`]: what a parsed document must satisfy before an
//! engine sees it. A topology size, host id or load the builders and flow
//! generators would assert on is an error here, naming the field and its
//! bound, so `fncc-repro run` reports it instead of panicking mid-run. The
//! builders keep their own asserts for hand-built topologies.

use super::codec::{Field, Tagged};
use super::{LinkSpec, PartitionRule, Scenario, TopologySpec, TrafficSpec};
use fncc_des::time::TimeDelta;
use fncc_net::packet::MAX_HOPS;
use fncc_net::units::Bandwidth;

/// Port indices are `u8`, so no switch may have more ports than this.
const MAX_PORTS: u32 = u8::MAX as u32 + 1;

/// Return an error naming `$kind`'s field `$f` unless `$lo ≤ $f ≤ $hi`.
macro_rules! bound {
    ($kind:expr, $f:ident in $lo:expr, $hi:expr) => {
        let (value, lo, hi) = (*$f, $lo, $hi);
        if !(lo..=hi).contains(&value) {
            let (kind, field) = ($kind, stringify!($f));
            return Err(format!("{kind} '{field}' is {value}, outside [{lo}, {hi}]"));
        }
    };
}

impl Scenario {
    /// Check that every engine can run the scenario: at least one seed, a
    /// link rate and delay the unit conversions can hold, topology sizes
    /// within what the builders support and port indices can address, traffic
    /// that fits the topology's hosts, paths no longer than the INT stack,
    /// the fault list (see [`fncc_net::fault::validate`]), and the
    /// foreground partition against the scenario's actual flow population
    /// (first seed). Called by [`Scenario::from_json`], so a bad document
    /// fails loudly at parse time instead of panicking, silently running
    /// an empty DES half or a fault that never fires. Scenarios without a
    /// `foreground` block skip the partition checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.seeds.is_empty() {
            return Err("'seeds' is empty: a scenario runs once per seed".to_string());
        }
        self.link.check()?;
        self.topology.check()?;
        self.traffic.check(self.topology.n_hosts())?;
        // Elephants are sized from the horizon: a zero one makes zero-byte
        // flows, which the hosts assert on.
        if matches!(self.traffic, TrafficSpec::Elephants { .. })
            && self.stop.sizing_horizon().as_ps() == 0
        {
            return Err(
                "elephants traffic is sized from the 'stop' horizon, which is 0: \
                 every elephant would carry 0 bytes"
                    .to_string(),
            );
        }
        if self.has_faults() {
            fncc_net::fault::validate(&self.faults, &self.topology.build(self.link))?;
        }
        let Some(fg) = &self.foreground else {
            return Ok(());
        };
        if fg.rules.is_empty() {
            return Err(format!(
                "'foreground.rules' is empty: the hybrid backend needs at least one \
                 partition rule ({})",
                PartitionRule::TAGS.join(" | ")
            ));
        }
        // A rule that can match nothing (a zero threshold, an empty list)
        // fails the dead-rule check below; a host beyond the topology can
        // hide behind the rule's other hosts, so it is checked on its own.
        let n_hosts = self.topology.n_hosts();
        for rule in &fg.rules {
            if let PartitionRule::ToHosts { hosts } = rule {
                if let Some(&bad) = hosts.iter().find(|&&h| h >= n_hosts) {
                    return Err(format!(
                        "to_hosts rule names host {bad} but the topology has \
                         only {n_hosts} hosts"
                    ));
                }
            }
        }
        let (_, flows) = self.instance(self.seeds[0]);
        for rule in &fg.rules {
            if !flows.iter().any(|f| rule.matches(f)) {
                return Err(format!(
                    "partition rule `{}` matches none of the scenario's {} flows; \
                     the rule is dead — fix it or drop it",
                    rule.emit().to_string_compact(),
                    flows.len()
                ));
            }
        }
        let n_fg = flows.iter().filter(|f| fg.is_foreground(f)).count();
        if n_fg == flows.len() {
            return Err(format!(
                "foreground partition matches all {} flows, leaving no background \
                 for the fluid half — run the packet backend instead",
                flows.len()
            ));
        }
        Ok(())
    }
}

impl LinkSpec {
    /// A nonzero rate, and a rate and delay whose bits/s and picoseconds
    /// fit the `u64` of [`Bandwidth`] and [`TimeDelta`].
    fn check(&self) -> Result<(), String> {
        let LinkSpec { gbps, prop_ns } = self;
        bound!("link", gbps in 1, u64::MAX / Bandwidth::gbps(1).as_bps());
        bound!("link", prop_ns in 0, u64::MAX / TimeDelta::from_ns(1).as_ps());
        Ok(())
    }
}

impl TopologySpec {
    /// The sizes the `Topology` builders assert on, and the port counts a
    /// `u8` port index can address.
    fn check(&self) -> Result<(), String> {
        let kind = self.name();
        match self {
            TopologySpec::Dumbbell { senders, switches } => {
                // The first switch has one port per sender plus the chain
                // link (or the receiver, on a one-switch chain).
                bound!(kind, senders in 0, MAX_PORTS - 1);
                bound!(kind, switches in 1, u32::MAX);
                int_stack(kind, *switches)?;
            }
            TopologySpec::Line {
                switches,
                attach: entries,
            } => {
                bound!(kind, switches in 1, u32::MAX);
                // As deep as its farthest sender. Checked first, so the port
                // count below stops at the first crowded switch.
                let nearest = *entries.iter().min().unwrap_or(&0);
                int_stack(kind, switches.saturating_sub(nearest))?;
                for attach in entries {
                    bound!(kind, attach in 0, switches - 1);
                    // Its senders, a link left, a link (or the receiver) right.
                    let senders = entries.iter().filter(|&a| a == attach).count() as u32;
                    let ports = senders + u32::from(*attach > 0) + 1;
                    if ports > MAX_PORTS {
                        return Err(format!(
                            "{kind} switch {attach} would have {ports} ports, over the \
                             {MAX_PORTS} a port index can address"
                        ));
                    }
                }
            }
            TopologySpec::Star { hosts } => {
                bound!(kind, hosts in 2, MAX_PORTS);
            }
            TopologySpec::FatTree { k } => {
                // Each switch has k ports, indexed up to k as a `u8`.
                bound!(kind, k in 2, MAX_PORTS - 2);
                if k % 2 != 0 {
                    return Err(format!("{kind} '{}' is {k}, must be even", stringify!(k)));
                }
            }
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => {
                // A spine has a port per leaf; a leaf, one per host and spine.
                bound!(kind, leaves in 2, MAX_PORTS);
                bound!(kind, hosts_per_leaf in 1, MAX_PORTS - 1);
                bound!(kind, spines in 1, MAX_PORTS - hosts_per_leaf);
            }
        }
        Ok(())
    }
}

/// Only the chain topologies can outgrow the INT stack: a star has one
/// switch on a path, a leaf–spine three, a fat-tree five.
fn int_stack(kind: &str, hops: u32) -> Result<(), String> {
    if hops as usize <= MAX_HOPS {
        return Ok(());
    }
    Err(format!(
        "{kind} topology has a {hops}-switch path, but a frame carries at most \
         {MAX_HOPS} INT records: the senders would never see the last hops' \
         telemetry — shorten the chain"
    ))
}

impl TrafficSpec {
    /// What the flow generators and hosts assert on, given the topology's
    /// host count, and traffic that generates at least one flow, each of at
    /// least one byte.
    fn check(&self, n_hosts: u32) -> Result<(), String> {
        let kind = self.name();
        // Every kind needs a sender besides the receiver.
        if n_hosts < 2 {
            return Err(format!(
                "{kind} traffic needs at least 2 hosts, but the topology has {n_hosts}"
            ));
        }
        match self {
            TrafficSpec::Elephants { .. } | TrafficSpec::Staircase { .. } => {}
            TrafficSpec::Incast {
                receiver,
                fan_in,
                size,
                waves,
                ..
            } => {
                bound!(kind, receiver in 0, n_hosts - 1);
                bound!(kind, fan_in in 1, u32::MAX);
                bound!(kind, size in 1, u64::MAX);
                bound!(kind, waves in 1, u32::MAX);
            }
            TrafficSpec::Poisson { load, flows, .. } => {
                if !(*load > 0.0 && *load <= 1.0) {
                    return Err(format!(
                        "{kind} '{}' is {load}, outside (0, 1]",
                        stringify!(load)
                    ));
                }
                bound!(kind, flows in 1, u32::MAX);
            }
            TrafficSpec::MiceBehindElephants {
                elephants,
                elephant_size,
                mice,
                mouse_size,
                ..
            } => {
                // The last host receives; the mice need a sender of their own.
                bound!(kind, elephants in 0, n_hosts - 2);
                bound!(kind, elephant_size in 1, u64::MAX);
                bound!(kind, mouse_size in 1, u64::MAX);
                if *elephants == 0 && *mice == 0 {
                    return Err(format!(
                        "{kind} 'elephants' and 'mice' are both 0: the traffic has no flow"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each document parses on a parser without range checks and then
    /// panics in a topology builder, flow generator or host, or runs no
    /// flow at all; here it is an error that names the field. The first
    /// eight, the zero link rate, the zero-byte incast and the zero-flow
    /// Poisson ship as `scenarios/invalid/*.json` (with a `prop_ns` past
    /// 2^53, see `codec.rs`), which CI runs through `fncc-repro run`.
    #[test]
    fn malformed_documents_are_errors_not_panics() {
        const INCAST: &str =
            r#"{"kind":"incast","receiver":0,"fan_in":2,"size":10000,"waves":1,"gap_us":10}"#;
        const ELEPHANTS: &str = r#"{"kind":"elephants","join_at_us":10}"#;
        const POISSON: &str = r#"{"kind":"poisson","workload":"WebSearch","load":0.5,"flows":20}"#;
        let table: [(&str, &str, &str); 25] = [
            (r#"{"kind":"fat_tree","k":3}"#, INCAST, "must be even"),
            (
                r#"{"kind":"star","hosts":1}"#,
                ELEPHANTS,
                "'hosts' is 1, outside [2, 256]",
            ),
            (
                r#"{"kind":"line","switches":3,"attach":[0,3]}"#,
                ELEPHANTS,
                "'attach' is 3, outside [0, 2]",
            ),
            (
                r#"{"kind":"leaf_spine","leaves":1,"spines":2,"hosts_per_leaf":4}"#,
                INCAST,
                "'leaves' is 1, outside [2, 256]",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"incast","receiver":4,"fan_in":2,"size":10000,"waves":1,"gap_us":10}"#,
                "'receiver' is 4, outside [0, 3]",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"poisson","workload":"WebSearch","load":1.5,"flows":20}"#,
                "'load' is 1.5, outside (0, 1]",
            ),
            (
                r#"{"kind":"dumbbell","senders":0,"switches":2}"#,
                POISSON,
                "needs at least 2 hosts",
            ),
            (
                r#"{"kind":"dumbbell","senders":2,"switches":2}"#,
                r#"{"kind":"mice_behind_elephants","elephants":2,"elephant_size":100000,
                    "mice":4,"mouse_size":1000,"warmup_us":10,"gap_us":10}"#,
                "'elephants' is 2, outside [0, 1]",
            ),
            // The builders' other asserts and port-index limits.
            (
                r#"{"kind":"leaf_spine","leaves":2,"spines":200,"hosts_per_leaf":100}"#,
                INCAST,
                "'spines' is 200, outside [1, 156]",
            ),
            (
                r#"{"kind":"dumbbell","senders":2,"switches":0}"#,
                ELEPHANTS,
                "'switches' is 0",
            ),
            (
                r#"{"kind":"dumbbell","senders":300,"switches":2}"#,
                INCAST,
                "'senders' is 300",
            ),
            (r#"{"kind":"star","hosts":300}"#, INCAST, "'hosts' is 300"),
            (
                r#"{"kind":"fat_tree","k":256}"#,
                INCAST,
                "'k' is 256, outside [2, 254]",
            ),
            (
                r#"{"kind":"dumbbell","senders":0,"switches":2}"#,
                r#"{"kind":"staircase","interval_us":10}"#,
                "needs at least 2 hosts",
            ),
            (
                r#"{"kind":"dumbbell","senders":0,"switches":2}"#,
                INCAST,
                "needs at least 2 hosts",
            ),
            // A zero link rate: the traffic cell carries the link member.
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"incast","receiver":0,"fan_in":2,"size":10000,"waves":1,"gap_us":10},
                    "link":{"gbps":0,"prop_ns":1500}"#,
                "link 'gbps' is 0, outside [1, 18446744073]",
            ),
            // Zero-byte flows, which the hosts assert on, and traffic with
            // no flow, which runs nothing.
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"incast","receiver":0,"fan_in":2,"size":0,"waves":1,"gap_us":10}"#,
                "'size' is 0, outside [1, 18446744073709551615]",
            ),
            (
                r#"{"kind":"dumbbell","senders":2,"switches":2}"#,
                r#"{"kind":"mice_behind_elephants","elephants":1,"elephant_size":100000,
                    "mice":4,"mouse_size":0,"warmup_us":10,"gap_us":10}"#,
                "'mouse_size' is 0",
            ),
            (
                r#"{"kind":"dumbbell","senders":2,"switches":2}"#,
                r#"{"kind":"mice_behind_elephants","elephants":1,"elephant_size":0,
                    "mice":4,"mouse_size":1000,"warmup_us":10,"gap_us":10}"#,
                "'elephant_size' is 0",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"incast","receiver":0,"fan_in":0,"size":10000,"waves":1,"gap_us":10}"#,
                "'fan_in' is 0, outside [1, 4294967295]",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"incast","receiver":0,"fan_in":2,"size":10000,"waves":0,"gap_us":10}"#,
                "'waves' is 0, outside [1, 4294967295]",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"poisson","workload":"WebSearch","load":0.5,"flows":0}"#,
                "'flows' is 0, outside [1, 4294967295]",
            ),
            (
                r#"{"kind":"dumbbell","senders":2,"switches":2}"#,
                r#"{"kind":"mice_behind_elephants","elephants":0,"elephant_size":100000,
                    "mice":0,"mouse_size":1000,"warmup_us":10,"gap_us":10}"#,
                "'elephants' and 'mice' are both 0",
            ),
            (
                r#"{"kind":"dumbbell","senders":0,"switches":2}"#,
                ELEPHANTS,
                "needs at least 2 hosts",
            ),
            (
                r#"{"kind":"star","hosts":4}"#,
                r#"{"kind":"elephants","join_at_us":10},"stop":{"kind":"horizon","us":0}"#,
                "'stop' horizon, which is 0",
            ),
        ];
        for (topology, traffic, want) in table {
            let doc = format!(
                r#"{{"name":"bad","topology":{topology},"traffic":{traffic},"cc":"FNCC"}}"#
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(want), "{topology} {traffic}: {err}");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/invalid");
        let mut shipped = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(Scenario::from_json(&text).is_err(), "{}", path.display());
            shipped += 1;
        }
        assert_eq!(shipped, 12);
    }

    /// A document with no seeds would run nothing and report nothing; a
    /// link rate or delay past what the units hold would wrap.
    #[test]
    fn empty_seeds_and_overflowing_links_are_errors() {
        let mut sc = Scenario::new(
            "bad",
            TopologySpec::Star { hosts: 4 },
            TrafficSpec::Elephants { join_at_us: 10 },
            fncc_cc::CcKind::Fncc,
        );
        sc.validate().unwrap();
        sc.seeds.clear();
        assert!(sc.validate().unwrap_err().contains("'seeds' is empty"));
        sc.seeds = vec![1];
        let max_gbps = u64::MAX / 1_000_000_000;
        let max_ns = u64::MAX / 1_000;
        for (link, want) in [
            (
                LinkSpec {
                    gbps: max_gbps + 1,
                    prop_ns: 1500,
                },
                format!("link 'gbps' is {}, outside [1, {max_gbps}]", max_gbps + 1),
            ),
            (
                LinkSpec {
                    gbps: 100,
                    prop_ns: max_ns + 1,
                },
                format!("link 'prop_ns' is {}, outside [0, {max_ns}]", max_ns + 1),
            ),
        ] {
            sc.link = link;
            assert_eq!(sc.validate().unwrap_err(), want);
        }
        sc.link = LinkSpec {
            gbps: max_gbps,
            prop_ns: max_ns,
        };
        sc.validate().unwrap();
    }

    /// The bounds are the builders' own: a document at each edge builds.
    #[test]
    fn documents_at_the_bounds_build() {
        for topology in [
            TopologySpec::Star { hosts: 2 },
            TopologySpec::Star { hosts: MAX_PORTS },
            TopologySpec::FatTree { k: 2 },
            TopologySpec::Dumbbell {
                senders: MAX_PORTS - 1,
                switches: 1,
            },
            TopologySpec::Line {
                switches: 3,
                attach: vec![1; MAX_PORTS as usize - 2],
            },
            TopologySpec::LeafSpine {
                leaves: 2,
                spines: 56,
                hosts_per_leaf: 200,
            },
        ] {
            let sc = Scenario::new(
                "edge",
                topology,
                TrafficSpec::Incast {
                    receiver: 0,
                    fan_in: 1,
                    size: 1000,
                    waves: 1,
                    gap_us: 0,
                },
                fncc_cc::CcKind::Fncc,
            );
            sc.validate().unwrap();
            let _ = sc.instance(1);
        }
    }
}
