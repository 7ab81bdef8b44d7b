//! [`Scenario::validate`]: what a parsed document must satisfy before an
//! engine sees it. A topology size, host id or load the builders and flow
//! generators would assert on is an error here, naming the field and its
//! bound, so `fncc-repro run` reports it instead of panicking mid-run. The
//! builders keep their own asserts for hand-built topologies.

use super::codec::{Field, Tagged};
use super::{PartitionRule, Scenario, TopologySpec, TrafficSpec};
use fncc_net::packet::MAX_HOPS;

/// Port indices are `u8`, so no switch may have more ports than this.
const MAX_PORTS: u32 = u8::MAX as u32 + 1;

/// Return an error naming `$kind`'s field `$f` unless `$lo ≤ $f ≤ $hi`.
macro_rules! bound {
    ($kind:expr, $f:ident in $lo:expr, $hi:expr) => {
        let (value, lo, hi): (u32, u32, u32) = (*$f, $lo, $hi);
        if !(lo..=hi).contains(&value) {
            let (kind, field) = ($kind, stringify!($f));
            return Err(format!("{kind} '{field}' is {value}, outside [{lo}, {hi}]"));
        }
    };
}

impl Scenario {
    /// Check that every engine can run the scenario: topology sizes within
    /// what the builders support and port indices can address, traffic
    /// that fits the topology's hosts, paths no longer than the INT stack,
    /// the fault list (see [`fncc_net::fault::validate`]), and the
    /// foreground partition against the scenario's actual flow population
    /// (first seed). Called by [`Scenario::from_json`], so a bad document
    /// fails loudly at parse time instead of panicking, silently running
    /// an empty DES half or a fault that never fires. Scenarios without a
    /// `foreground` block skip the partition checks.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.check()?;
        self.traffic.check(self.topology.n_hosts())?;
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
        let (_, flows) = self.instance(*self.seeds.first().unwrap_or(&1));
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
    /// What the flow generators assert on, given the topology's host count.
    fn check(&self, n_hosts: u32) -> Result<(), String> {
        let kind = self.name();
        // Every kind but elephants needs a sender besides the receiver.
        if n_hosts < 2 && !matches!(self, TrafficSpec::Elephants { .. }) {
            return Err(format!(
                "{kind} traffic needs at least 2 hosts, but the topology has {n_hosts}"
            ));
        }
        match self {
            TrafficSpec::Elephants { .. } | TrafficSpec::Staircase { .. } => {}
            TrafficSpec::Incast { receiver, .. } => {
                bound!(kind, receiver in 0, n_hosts - 1);
            }
            TrafficSpec::Poisson { load, .. } => {
                if !(*load > 0.0 && *load <= 1.0) {
                    return Err(format!(
                        "{kind} '{}' is {load}, outside (0, 1]",
                        stringify!(load)
                    ));
                }
            }
            TrafficSpec::MiceBehindElephants { elephants, .. } => {
                // The last host receives; the mice need a sender of their own.
                bound!(kind, elephants in 0, n_hosts - 2);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each document parses on a parser without range checks and then
    /// panics in a topology builder or flow generator; here it is an error
    /// that names the field. The first eight ship as
    /// `scenarios/invalid/*.json`, which CI runs through `fncc-repro run`.
    #[test]
    fn malformed_documents_are_errors_not_panics() {
        const INCAST: &str =
            r#"{"kind":"incast","receiver":0,"fan_in":2,"size":10000,"waves":1,"gap_us":10}"#;
        const ELEPHANTS: &str = r#"{"kind":"elephants","join_at_us":10}"#;
        const POISSON: &str = r#"{"kind":"poisson","workload":"WebSearch","load":0.5,"flows":20}"#;
        let table: [(&str, &str, &str); 15] = [
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
        assert_eq!(shipped, 8);
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
