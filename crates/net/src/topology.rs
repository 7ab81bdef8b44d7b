//! Topology construction: the paper's dumbbell (Fig. 10), the hop-location
//! lines of Fig. 11, the three-level fat-tree of §5.5, a star, and
//! spanning-tree routing (Fig. 6) for arbitrary topologies.
//!
//! A [`Topology`] is a pure description — nodes, ports, link parameters and
//! routing tables — consumed by [`crate::fabric::Fabric`] to instantiate the
//! live simulation, and by analysis code (path tracing, ideal FCT, base-RTT
//! computation).

use crate::ids::{FlowId, HostId, NodeRef, SwitchId};
use crate::routing::{flow_hash, CompiledRoutes, RouteEntry, RoutingTable};
use crate::units::Bandwidth;
use fncc_des::time::TimeDelta;
use std::collections::VecDeque;
use std::sync::Arc;

/// One side of a link: who is at the other end and the link's parameters.
#[derive(Clone, Debug)]
pub struct PortSpec {
    /// Node at the far end.
    pub peer: NodeRef,
    /// Port index at the far end.
    pub peer_port: u8,
    /// Link bandwidth (both directions run at the same rate).
    pub bw: Bandwidth,
    /// One-way propagation delay.
    pub prop: TimeDelta,
}

/// A switch: its ports and its routing table.
#[derive(Clone, Debug)]
pub struct SwitchSpec {
    /// Ports in index order.
    pub ports: Vec<PortSpec>,
    /// Forwarding state. Shared, not copied, by clones of the topology and
    /// by the live switches built from it: it is read-only once built.
    pub route: Arc<RoutingTable>,
}

/// Which builder produced the topology (used in reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fig. 10: N senders at the first switch of a chain, receiver at the last.
    Dumbbell,
    /// Fig. 11: senders attached at arbitrary switches of a chain.
    Line,
    /// Three-level fat-tree with parameter k.
    FatTree(u32),
    /// Two-level leaf–spine (leaves, spines).
    LeafSpine(u32, u32),
    /// Single switch.
    Star,
    /// Anything else.
    Custom,
}

/// A complete network description.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Builder provenance.
    pub kind: TopologyKind,
    /// Hosts are numbered `0..n_hosts`; each has exactly one port (port 0).
    pub n_hosts: u32,
    /// Host NIC link descriptions, indexed by host id.
    pub host_ports: Vec<PortSpec>,
    /// Switches, indexed by switch id.
    pub switches: Vec<SwitchSpec>,
}

impl Topology {
    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// Every switch's forwarding table compiled for the hot path, by switch
    /// id (what [`crate::fabric::Fabric::with_routes`] takes).
    pub fn compile_routes(&self) -> Vec<CompiledRoutes> {
        self.switches
            .iter()
            .map(|s| CompiledRoutes::compile(&s.route))
            .collect()
    }

    /// Check structural invariants: every port's peer points back at it with
    /// matching link parameters. Panics with a description on violation.
    pub fn validate(&self) {
        assert_eq!(self.host_ports.len(), self.n_hosts as usize);
        let peer_spec = |node: NodeRef, port: u8| -> &PortSpec {
            match node {
                NodeRef::Host(h) => {
                    assert_eq!(port, 0, "host {h:?} has a single port");
                    &self.host_ports[h.ix()]
                }
                NodeRef::Switch(s) => &self.switches[s.ix()].ports[port as usize],
            }
        };
        let check = |me: NodeRef, my_port: u8, spec: &PortSpec| {
            let back = peer_spec(spec.peer, spec.peer_port);
            assert!(
                matches!((back.peer, me), (NodeRef::Host(a), NodeRef::Host(b)) if a == b)
                    || matches!((back.peer, me), (NodeRef::Switch(a), NodeRef::Switch(b)) if a == b),
                "{me:?}:{my_port} -> {:?}:{} does not point back",
                spec.peer,
                spec.peer_port
            );
            assert_eq!(
                back.peer_port, my_port,
                "{me:?}:{my_port} peer-port mismatch"
            );
            assert_eq!(back.bw, spec.bw, "{me:?}:{my_port} asymmetric bandwidth");
            assert_eq!(back.prop, spec.prop, "{me:?}:{my_port} asymmetric delay");
        };
        for (h, spec) in self.host_ports.iter().enumerate() {
            check(NodeRef::Host(HostId(h as u32)), 0, spec);
        }
        for (s, sw) in self.switches.iter().enumerate() {
            for (p, spec) in sw.ports.iter().enumerate() {
                check(NodeRef::Switch(SwitchId(s as u32)), p as u8, spec);
            }
        }
    }

    /// Trace the request path of a flow: `(node, egress port)` pairs starting
    /// at the source host and ending when the destination host is reached.
    /// The destination host itself is not included.
    pub fn trace_path(&self, src: HostId, dst: HostId, flow: FlowId) -> Vec<(NodeRef, u8)> {
        let mut path = Vec::new();
        self.trace_path_into(src, dst, flow, &mut path);
        path
    }

    /// [`Self::trace_path`] into a caller-owned buffer (cleared first), so
    /// a per-flow hot path walks the route once and allocates nothing.
    pub fn trace_path_into(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        path: &mut Vec<(NodeRef, u8)>,
    ) {
        assert_ne!(src, dst, "flow to self");
        let h = flow_hash(src, dst, flow);
        path.clear();
        path.push((NodeRef::Host(src), 0u8));
        let mut cur = self.host_ports[src.ix()].peer;
        let mut hops = 0;
        loop {
            hops += 1;
            assert!(hops < 64, "routing loop tracing {src:?}->{dst:?}");
            match cur {
                NodeRef::Host(hh) => {
                    assert_eq!(hh, dst, "path reached wrong host");
                    return;
                }
                NodeRef::Switch(s) => {
                    let sw = &self.switches[s.ix()];
                    let out = sw.route.egress(dst, h);
                    path.push((cur, out));
                    cur = sw.ports[out as usize].peer;
                }
            }
        }
    }

    /// The switches on a flow's request path, in order.
    pub fn path_switches(&self, src: HostId, dst: HostId, flow: FlowId) -> Vec<SwitchId> {
        self.trace_path(src, dst, flow)
            .into_iter()
            .filter_map(|(n, _)| match n {
                NodeRef::Switch(s) => Some(s),
                NodeRef::Host(_) => None,
            })
            .collect()
    }

    /// Bandwidth of the link out of `node` port `port`.
    fn port_spec(&self, node: NodeRef, port: u8) -> &PortSpec {
        match node {
            NodeRef::Host(h) => &self.host_ports[h.ix()],
            NodeRef::Switch(s) => &self.switches[s.ix()].ports[port as usize],
        }
    }

    /// One-way latency of a single full-size frame of `bytes` along the
    /// request path (store-and-forward: serialize at every hop + propagate).
    pub fn one_way_latency(&self, src: HostId, dst: HostId, flow: FlowId, bytes: u32) -> TimeDelta {
        let mut total = TimeDelta::ZERO;
        for (node, port) in self.trace_path(src, dst, flow) {
            let spec = self.port_spec(node, port);
            total += spec.bw.tx_time(bytes as u64) + spec.prop;
        }
        total
    }

    /// Base round-trip time for a flow: a full MTU frame out plus an ACK of
    /// `ack_bytes` back, on an idle network.
    pub fn flow_base_rtt(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        mtu: u32,
        ack_bytes: u32,
    ) -> TimeDelta {
        self.one_way_latency(src, dst, flow, mtu) + self.one_way_latency(dst, src, flow, ack_bytes)
    }

    /// Network-wide base RTT: the maximum [`Self::flow_base_rtt`] over all
    /// (or, for big networks, a diameter-covering sample of) host pairs.
    /// HPCC/FNCC use this as the window normalisation constant `T`.
    pub fn base_rtt(&self, mtu: u32, ack_bytes: u32) -> TimeDelta {
        let n = self.n_hosts;
        let mut max = TimeDelta::ZERO;
        let pairs: Vec<(u32, u32)> = if n <= 64 {
            (0..n)
                .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
                .collect()
        } else {
            // Sample host 0 against everyone plus a diagonal sweep; in the
            // regular topologies we build, the diameter is hit by host 0 vs
            // the farthest pod already.
            (1..n)
                .map(|b| (0, b))
                .chain((1..n).map(|a| (a, n - 1)).filter(|&(a, b)| a != b))
                .collect()
        };
        for (a, b) in pairs {
            let r = self.flow_base_rtt(HostId(a), HostId(b), FlowId(0), mtu, ack_bytes);
            if r > max {
                max = r;
            }
        }
        max
    }

    /// Minimum link bandwidth along a flow's request path (its line rate).
    pub fn path_bandwidth(&self, src: HostId, dst: HostId, flow: FlowId) -> Bandwidth {
        self.bandwidth_on(&self.trace_path(src, dst, flow))
    }

    /// Minimum link bandwidth along an already-traced path.
    fn bandwidth_on(&self, path: &[(NodeRef, u8)]) -> Bandwidth {
        path.iter()
            .map(|&(n, p)| self.port_spec(n, p).bw)
            .min()
            .expect("empty path")
    }

    /// Ideal (contention-free) flow completion time for `size` application
    /// bytes from `src` to `dst`: the last byte's arrival at the receiver on
    /// an empty network, assuming full-MTU segmentation and store-and-forward
    /// pipelining:
    /// `FCT = size_wire/B_min + Σ_hops(MTU/B_hop + prop) − MTU/B_first…`
    ///
    /// Concretely: the first frame pipelines through every hop; subsequent
    /// bytes stream at the bottleneck rate.
    pub fn ideal_fct(
        &self,
        src: HostId,
        dst: HostId,
        flow: FlowId,
        size: u64,
        mtu_payload: u32,
        header: u32,
    ) -> TimeDelta {
        self.ideal_fct_on(&self.trace_path(src, dst, flow), size, mtu_payload, header)
    }

    /// [`Self::ideal_fct`] over an already-traced request path
    /// ([`Self::trace_path`]'s hops), for callers that need the path for
    /// something else as well.
    pub fn ideal_fct_on(
        &self,
        path: &[(NodeRef, u8)],
        size: u64,
        mtu_payload: u32,
        header: u32,
    ) -> TimeDelta {
        let npkts = size.div_ceil(mtu_payload as u64).max(1);
        let wire_total = size + npkts * header as u64;
        let first_frame = (size.min(mtu_payload as u64) + header as u64).max(header as u64);
        let bottleneck = self.bandwidth_on(path);
        // First frame pipelines hop by hop…
        let mut t = TimeDelta::ZERO;
        for (n, p) in path {
            let spec = self.port_spec(*n, *p);
            t += spec.bw.tx_time(first_frame) + spec.prop;
        }
        // …and the remaining bytes stream behind it at the bottleneck.
        t + bottleneck.tx_time(wire_total - first_frame)
    }

    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Fig. 10 dumbbell: `n_senders` hosts at switch 0, a chain of
    /// `m_switches`, and one receiver (host id `n_senders`) at the last
    /// switch. All links at `bw` with `prop` one-way delay.
    pub fn dumbbell(n_senders: u32, m_switches: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        let attach = vec![0usize; n_senders as usize];
        let mut t = Self::line(m_switches, &attach, bw, prop);
        t.kind = TopologyKind::Dumbbell;
        t
    }

    /// Fig. 11 generalised line: a chain of `m_switches`; sender `i` attaches
    /// to switch `sender_attach[i]`; the single receiver (host id
    /// `sender_attach.len()`) attaches to the last switch.
    ///
    /// * first-hop congestion: `&[0, 0]`
    /// * middle-hop congestion (m=3): `&[0, 1]`
    /// * last-hop congestion (m=3): `&[0, 2]`
    pub fn line(
        m_switches: u32,
        sender_attach: &[usize],
        bw: Bandwidth,
        prop: TimeDelta,
    ) -> Topology {
        assert!(m_switches >= 1);
        let m = m_switches as usize;
        assert!(
            sender_attach.iter().all(|&a| a < m),
            "attachment beyond chain"
        );
        let n_senders = sender_attach.len() as u32;
        let receiver = HostId(n_senders);
        let n_hosts = n_senders + 1;

        // Assign port indices per switch: host ports first, then chain links.
        let mut ports: Vec<Vec<PortSpec>> = vec![Vec::new(); m];
        let mut host_ports: Vec<PortSpec> = Vec::with_capacity(n_hosts as usize);
        // placeholder filled below
        host_ports.resize(
            n_hosts as usize,
            PortSpec {
                peer: NodeRef::Host(HostId(0)),
                peer_port: 0,
                bw,
                prop,
            },
        );

        for (i, &a) in sender_attach.iter().enumerate() {
            let p = ports[a].len() as u8;
            ports[a].push(PortSpec {
                peer: NodeRef::Host(HostId(i as u32)),
                peer_port: 0,
                bw,
                prop,
            });
            host_ports[i] = PortSpec {
                peer: NodeRef::Switch(SwitchId(a as u32)),
                peer_port: p,
                bw,
                prop,
            };
        }
        // Receiver at the last switch.
        {
            let a = m - 1;
            let p = ports[a].len() as u8;
            ports[a].push(PortSpec {
                peer: NodeRef::Host(receiver),
                peer_port: 0,
                bw,
                prop,
            });
            host_ports[receiver.ix()] = PortSpec {
                peer: NodeRef::Switch(SwitchId(a as u32)),
                peer_port: p,
                bw,
                prop,
            };
        }
        // Chain links j <-> j+1.
        let mut next_port: Vec<Option<u8>> = vec![None; m];
        let mut prev_port: Vec<Option<u8>> = vec![None; m];
        for j in 0..m.saturating_sub(1) {
            let pj = ports[j].len() as u8;
            let pk = ports[j + 1].len() as u8;
            ports[j].push(PortSpec {
                peer: NodeRef::Switch(SwitchId((j + 1) as u32)),
                peer_port: pk,
                bw,
                prop,
            });
            ports[j + 1].push(PortSpec {
                peer: NodeRef::Switch(SwitchId(j as u32)),
                peer_port: pj,
                bw,
                prop,
            });
            next_port[j] = Some(pj);
            prev_port[j + 1] = Some(pk);
        }

        // Routing: towards the receiver go "right", towards sender i go
        // "left" until its attachment switch, then its host port.
        let mut switches = Vec::with_capacity(m);
        for j in 0..m {
            let mut entries = Vec::with_capacity(n_hosts as usize);
            for hid in 0..n_hosts {
                let h = HostId(hid);
                let entry = if h == receiver {
                    if j == m - 1 {
                        RouteEntry::Single(host_port_on(&ports[j], h))
                    } else {
                        RouteEntry::Single(next_port[j].unwrap())
                    }
                } else {
                    let a = sender_attach[hid as usize];
                    use std::cmp::Ordering;
                    match a.cmp(&j) {
                        Ordering::Equal => RouteEntry::Single(host_port_on(&ports[j], h)),
                        Ordering::Less => RouteEntry::Single(prev_port[j].unwrap()),
                        Ordering::Greater => RouteEntry::Single(next_port[j].unwrap()),
                    }
                };
                entries.push(entry);
            }
            switches.push(SwitchSpec {
                ports: ports[j].clone(),
                route: Arc::new(RoutingTable::PerDst(entries)),
            });
        }

        let t = Topology {
            kind: TopologyKind::Line,
            n_hosts,
            host_ports,
            switches,
        };
        t.validate();
        t
    }

    /// Single-switch star over `n_hosts`.
    pub fn star(n_hosts: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        assert!(n_hosts >= 2);
        let mut ports = Vec::with_capacity(n_hosts as usize);
        let mut host_ports = Vec::with_capacity(n_hosts as usize);
        for h in 0..n_hosts {
            ports.push(PortSpec {
                peer: NodeRef::Host(HostId(h)),
                peer_port: 0,
                bw,
                prop,
            });
            host_ports.push(PortSpec {
                peer: NodeRef::Switch(SwitchId(0)),
                peer_port: h as u8,
                bw,
                prop,
            });
        }
        let entries = (0..n_hosts).map(|h| RouteEntry::Single(h as u8)).collect();
        let t = Topology {
            kind: TopologyKind::Star,
            n_hosts,
            host_ports,
            switches: vec![SwitchSpec {
                ports,
                route: Arc::new(RoutingTable::PerDst(entries)),
            }],
        };
        t.validate();
        t
    }

    /// Three-level fat-tree with parameter `k` (even): `k³/4` hosts,
    /// `k²/2 + k²/4` switches, canonical wiring so symmetric ECMP holds
    /// (see [`crate::routing`]). The paper uses k=8 (128 hosts) with all
    /// links at 100 Gb/s and 1.5 µs propagation delay (1:1 oversubscription).
    pub fn fat_tree(k: u32, bw: Bandwidth, prop: TimeDelta) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
        let half = k / 2;
        let hosts_per_pod = half * half;
        let n_hosts = k * hosts_per_pod;
        let n_tor = k * half;
        let n_agg = k * half;
        let n_core = half * half;
        let tor_id = |p: u32, t: u32| SwitchId(p * half + t);
        let agg_id = |p: u32, a: u32| SwitchId(n_tor + p * half + a);
        let core_id = |j: u32| SwitchId(n_tor + n_agg + j);
        let host_id = |p: u32, t: u32, i: u32| HostId(p * hosts_per_pod + t * half + i);
        let pod_of = |h: HostId| h.0 / hosts_per_pod;
        let tor_of = |h: HostId| (h.0 % hosts_per_pod) / half;
        let slot_of = |h: HostId| h.0 % half;

        let mut host_ports = vec![
            PortSpec {
                peer: NodeRef::Host(HostId(0)),
                peer_port: 0,
                bw,
                prop
            };
            n_hosts as usize
        ];
        let mut switches: Vec<SwitchSpec> = Vec::with_capacity((n_tor + n_agg + n_core) as usize);

        // ToR switches.
        for p in 0..k {
            for t in 0..half {
                let mut ports = Vec::with_capacity(k as usize);
                for i in 0..half {
                    let h = host_id(p, t, i);
                    ports.push(PortSpec {
                        peer: NodeRef::Host(h),
                        peer_port: 0,
                        bw,
                        prop,
                    });
                    host_ports[h.ix()] = PortSpec {
                        peer: NodeRef::Switch(tor_id(p, t)),
                        peer_port: i as u8,
                        bw,
                        prop,
                    };
                }
                for a in 0..half {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(agg_id(p, a)),
                        peer_port: t as u8,
                        bw,
                        prop,
                    });
                }
                let mut entries = Vec::with_capacity(n_hosts as usize);
                for hid in 0..n_hosts {
                    let h = HostId(hid);
                    entries.push(if pod_of(h) == p && tor_of(h) == t {
                        RouteEntry::Single(slot_of(h) as u8)
                    } else {
                        RouteEntry::Ecmp {
                            ports: (half as u8..k as u8).collect(),
                            level: 0,
                        }
                    });
                }
                switches.push(SwitchSpec {
                    ports,
                    route: Arc::new(RoutingTable::PerDst(entries)),
                });
            }
        }
        // Aggregation switches.
        for p in 0..k {
            for a in 0..half {
                let mut ports = Vec::with_capacity(k as usize);
                for t in 0..half {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(tor_id(p, t)),
                        peer_port: (half + a) as u8,
                        bw,
                        prop,
                    });
                }
                for c in 0..half {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(core_id(a * half + c)),
                        peer_port: p as u8,
                        bw,
                        prop,
                    });
                }
                let mut entries = Vec::with_capacity(n_hosts as usize);
                for hid in 0..n_hosts {
                    let h = HostId(hid);
                    entries.push(if pod_of(h) == p {
                        RouteEntry::Single(tor_of(h) as u8)
                    } else {
                        RouteEntry::Ecmp {
                            ports: (half as u8..k as u8).collect(),
                            level: 1,
                        }
                    });
                }
                switches.push(SwitchSpec {
                    ports,
                    route: Arc::new(RoutingTable::PerDst(entries)),
                });
            }
        }
        // Core switches.
        for j in 0..n_core {
            let a = j / half;
            let mut ports = Vec::with_capacity(k as usize);
            for p in 0..k {
                ports.push(PortSpec {
                    peer: NodeRef::Switch(agg_id(p, a)),
                    peer_port: (half + (j % half)) as u8,
                    bw,
                    prop,
                });
            }
            let mut entries = Vec::with_capacity(n_hosts as usize);
            for hid in 0..n_hosts {
                entries.push(RouteEntry::Single(pod_of(HostId(hid)) as u8));
            }
            switches.push(SwitchSpec {
                ports,
                route: Arc::new(RoutingTable::PerDst(entries)),
            });
        }

        let t = Topology {
            kind: TopologyKind::FatTree(k),
            n_hosts,
            host_ports,
            switches,
        };
        t.validate();
        t
    }

    /// Two-level leaf–spine: `leaves` leaf switches with `hosts_per_leaf`
    /// hosts each, every leaf wired to every one of `spines` spine switches.
    /// All links run at `bw`, so the fabric oversubscription ratio is
    /// `hosts_per_leaf / spines` — pick `hosts_per_leaf > spines` for an
    /// oversubscribed fabric (e.g. 8 hosts over 2 spines = 4:1).
    ///
    /// Routing is symmetric ECMP exactly as in the fat-tree's lower levels:
    /// the leaf's up-choice uses hash digit 0 over uplinks in canonical
    /// (spine-index) order, so a flow's ACKs retrace its data path and
    /// FNCC's return-path INT stays valid.
    pub fn leaf_spine(
        leaves: u32,
        spines: u32,
        hosts_per_leaf: u32,
        bw: Bandwidth,
        prop: TimeDelta,
    ) -> Topology {
        assert!(leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1);
        assert!(
            hosts_per_leaf + spines <= u8::MAX as u32 + 1,
            "leaf port count exceeds u8 port indices"
        );
        assert!(leaves <= u8::MAX as u32 + 1, "spine port count exceeds u8");
        let n_hosts = leaves * hosts_per_leaf;
        let leaf_id = |l: u32| SwitchId(l);
        let spine_id = |s: u32| SwitchId(leaves + s);
        let leaf_of = |h: HostId| h.0 / hosts_per_leaf;
        let slot_of = |h: HostId| h.0 % hosts_per_leaf;

        let mut host_ports = vec![
            PortSpec {
                peer: NodeRef::Host(HostId(0)),
                peer_port: 0,
                bw,
                prop
            };
            n_hosts as usize
        ];
        let mut switches: Vec<SwitchSpec> = Vec::with_capacity((leaves + spines) as usize);

        // Leaf switches: host ports first, then one uplink per spine.
        for l in 0..leaves {
            let mut ports = Vec::with_capacity((hosts_per_leaf + spines) as usize);
            for i in 0..hosts_per_leaf {
                let h = HostId(l * hosts_per_leaf + i);
                ports.push(PortSpec {
                    peer: NodeRef::Host(h),
                    peer_port: 0,
                    bw,
                    prop,
                });
                host_ports[h.ix()] = PortSpec {
                    peer: NodeRef::Switch(leaf_id(l)),
                    peer_port: i as u8,
                    bw,
                    prop,
                };
            }
            for s in 0..spines {
                ports.push(PortSpec {
                    peer: NodeRef::Switch(spine_id(s)),
                    peer_port: l as u8,
                    bw,
                    prop,
                });
            }
            let mut entries = Vec::with_capacity(n_hosts as usize);
            for hid in 0..n_hosts {
                let h = HostId(hid);
                entries.push(if leaf_of(h) == l {
                    RouteEntry::Single(slot_of(h) as u8)
                } else {
                    RouteEntry::Ecmp {
                        ports: (hosts_per_leaf as u8..(hosts_per_leaf + spines) as u8).collect(),
                        level: 0,
                    }
                });
            }
            switches.push(SwitchSpec {
                ports,
                route: Arc::new(RoutingTable::PerDst(entries)),
            });
        }
        // Spine switches: port l goes to leaf l.
        for s in 0..spines {
            let mut ports = Vec::with_capacity(leaves as usize);
            for l in 0..leaves {
                ports.push(PortSpec {
                    peer: NodeRef::Switch(leaf_id(l)),
                    peer_port: (hosts_per_leaf + s) as u8,
                    bw,
                    prop,
                });
            }
            let entries = (0..n_hosts)
                .map(|hid| RouteEntry::Single(leaf_of(HostId(hid)) as u8))
                .collect();
            switches.push(SwitchSpec {
                ports,
                route: Arc::new(RoutingTable::PerDst(entries)),
            });
        }

        let t = Topology {
            kind: TopologyKind::LeafSpine(leaves, spines),
            n_hosts,
            host_ports,
            switches,
        };
        t.validate();
        t
    }

    /// Dragonfly (§3.1 Observation 2): `groups` groups of `routers_per_group`
    /// routers, full mesh inside each group, one global link per group pair
    /// assigned round-robin to routers, `hosts_per_router` hosts each.
    /// Routed over `n_trees` spanning trees (the Fig. 6 mechanism) so data
    /// and ACK paths stay identical.
    ///
    /// Requires `groups − 1 ≤ routers_per_group · something` only loosely:
    /// global links are distributed round-robin, so any `groups ≥ 2` works.
    pub fn dragonfly(
        groups: u32,
        routers_per_group: u32,
        hosts_per_router: u32,
        bw: Bandwidth,
        prop: TimeDelta,
        n_trees: usize,
    ) -> Topology {
        assert!(groups >= 2 && routers_per_group >= 1 && hosts_per_router >= 1);
        let a = routers_per_group;
        let n_sw = groups * a;
        let n_hosts = n_sw * hosts_per_router;
        let router = |g: u32, r: u32| SwitchId(g * a + r);

        // Adjacency (switch pairs), then ports.
        let mut links: Vec<(SwitchId, SwitchId)> = Vec::new();
        // Intra-group full mesh.
        for g in 0..groups {
            for r1 in 0..a {
                for r2 in (r1 + 1)..a {
                    links.push((router(g, r1), router(g, r2)));
                }
            }
        }
        // One global link per group pair, round-robin over routers.
        let mut next_router = vec![0u32; groups as usize];
        for g1 in 0..groups {
            for g2 in (g1 + 1)..groups {
                let r1 = next_router[g1 as usize] % a;
                let r2 = next_router[g2 as usize] % a;
                next_router[g1 as usize] += 1;
                next_router[g2 as usize] += 1;
                links.push((router(g1, r1), router(g2, r2)));
            }
        }

        let mut host_ports = vec![
            PortSpec {
                peer: NodeRef::Host(HostId(0)),
                peer_port: 0,
                bw,
                prop
            };
            n_hosts as usize
        ];
        let mut ports: Vec<Vec<PortSpec>> = vec![Vec::new(); n_sw as usize];
        for s in 0..n_sw {
            for i in 0..hosts_per_router {
                let h = HostId(s * hosts_per_router + i);
                let p = ports[s as usize].len() as u8;
                ports[s as usize].push(PortSpec {
                    peer: NodeRef::Host(h),
                    peer_port: 0,
                    bw,
                    prop,
                });
                host_ports[h.ix()] = PortSpec {
                    peer: NodeRef::Switch(SwitchId(s)),
                    peer_port: p,
                    bw,
                    prop,
                };
            }
        }
        for &(s1, s2) in &links {
            let p1 = ports[s1.ix()].len() as u8;
            let p2 = ports[s2.ix()].len() as u8;
            ports[s1.ix()].push(PortSpec {
                peer: NodeRef::Switch(s2),
                peer_port: p2,
                bw,
                prop,
            });
            ports[s2.ix()].push(PortSpec {
                peer: NodeRef::Switch(s1),
                peer_port: p1,
                bw,
                prop,
            });
        }

        let switches = ports
            .into_iter()
            .map(|p| SwitchSpec {
                ports: p,
                route: Arc::new(RoutingTable::PerDst(vec![
                    RouteEntry::Unreachable;
                    n_hosts as usize
                ])),
            })
            .collect();

        let t = Topology {
            kind: TopologyKind::Custom,
            n_hosts,
            host_ports,
            switches,
        }
        .with_spanning_trees(n_trees);
        t.validate();
        t
    }

    /// Jellyfish (§3.1 Observation 2): `n_switches` switches wired as a
    /// random `degree`-regular graph (stub matching, retried until simple
    /// and connected), `hosts_per_switch` hosts each, routed over
    /// `n_trees` spanning trees — the Fig. 6 mechanism, which keeps data
    /// and ACK paths identical on an otherwise unstructured topology.
    pub fn jellyfish(
        n_switches: u32,
        degree: u32,
        hosts_per_switch: u32,
        bw: Bandwidth,
        prop: TimeDelta,
        seed: u64,
        n_trees: usize,
    ) -> Topology {
        assert!(n_switches >= 2 && degree >= 2 && hosts_per_switch >= 1);
        assert!(
            (n_switches * degree).is_multiple_of(2),
            "n_switches * degree must be even for a regular graph"
        );
        assert!(degree < n_switches, "degree must be below switch count");
        let mut rng = fncc_des::rng::DetRng::new(seed, 0x1E11F);

        // Random regular graph by stub matching; retry on self-loops,
        // parallel edges or disconnection.
        let n = n_switches as usize;
        let edges: Vec<(u32, u32)> = 'outer: loop {
            let mut stubs: Vec<u32> = (0..n_switches)
                .flat_map(|s| std::iter::repeat_n(s, degree as usize))
                .collect();
            rng.shuffle(&mut stubs);
            let mut used = std::collections::HashSet::new();
            let mut edges = Vec::with_capacity(stubs.len() / 2);
            for pair in stubs.chunks_exact(2) {
                let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                if a == b || !used.insert((a, b)) {
                    continue 'outer; // self-loop or multi-edge: retry
                }
                edges.push((a, b));
            }
            // Connectivity check (union of edges spans all switches).
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                adj[a as usize].push(b as usize);
                adj[b as usize].push(a as usize);
            }
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(s) = stack.pop() {
                for &t in &adj[s] {
                    if !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            if seen.iter().all(|&v| v) {
                break edges;
            }
        };

        // Ports: hosts first, then network links in edge order.
        let n_hosts = n_switches * hosts_per_switch;
        let mut host_ports = vec![
            PortSpec {
                peer: NodeRef::Host(HostId(0)),
                peer_port: 0,
                bw,
                prop
            };
            n_hosts as usize
        ];
        let mut ports: Vec<Vec<PortSpec>> = vec![Vec::new(); n];
        for s in 0..n_switches {
            for i in 0..hosts_per_switch {
                let h = HostId(s * hosts_per_switch + i);
                let p = ports[s as usize].len() as u8;
                ports[s as usize].push(PortSpec {
                    peer: NodeRef::Host(h),
                    peer_port: 0,
                    bw,
                    prop,
                });
                host_ports[h.ix()] = PortSpec {
                    peer: NodeRef::Switch(SwitchId(s)),
                    peer_port: p,
                    bw,
                    prop,
                };
            }
        }
        for &(a, b) in &edges {
            let pa = ports[a as usize].len() as u8;
            let pb = ports[b as usize].len() as u8;
            ports[a as usize].push(PortSpec {
                peer: NodeRef::Switch(SwitchId(b)),
                peer_port: pb,
                bw,
                prop,
            });
            ports[b as usize].push(PortSpec {
                peer: NodeRef::Switch(SwitchId(a)),
                peer_port: pa,
                bw,
                prop,
            });
        }

        let switches = ports
            .into_iter()
            .map(|p| SwitchSpec {
                ports: p,
                // Placeholder; replaced by spanning trees below.
                route: Arc::new(RoutingTable::PerDst(vec![
                    RouteEntry::Unreachable;
                    n_hosts as usize
                ])),
            })
            .collect();

        let t = Topology {
            kind: TopologyKind::Custom,
            n_hosts,
            host_ports,
            switches,
        }
        .with_spanning_trees(n_trees);
        t.validate();
        t
    }

    /// Replace every switch's routing table with spanning-tree routing
    /// (Fig. 6): `n_trees` BFS trees rooted at distinct switches; a flow's
    /// hash picks the tree, and within a tree every path is unique — so data
    /// and ACK paths are identical by construction.
    pub fn with_spanning_trees(mut self, n_trees: usize) -> Topology {
        assert!(n_trees >= 1);
        let n_sw = self.switches.len();
        assert!(n_sw >= 1);
        // Build switch-level adjacency: (switch, port) -> peer switch.
        // Tree edges are chosen among switch-switch links; host links are
        // leaves present in every tree.
        let mut trees_per_switch: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_sw];
        for t in 0..n_trees {
            let root = t % n_sw;
            // BFS over switches from the root, remembering the port used to
            // reach each switch (towards-parent port).
            let mut parent_port: Vec<Option<u8>> = vec![None; n_sw]; // my port towards parent
            let mut visited = vec![false; n_sw];
            let mut order = VecDeque::new();
            visited[root] = true;
            order.push_back(root);
            let mut bfs: Vec<usize> = Vec::with_capacity(n_sw);
            while let Some(s) = order.pop_front() {
                bfs.push(s);
                // Rotate port scan order by tree index for path diversity.
                let nports = self.switches[s].ports.len();
                for off in 0..nports {
                    let p = (off + t) % nports;
                    if let NodeRef::Switch(peer) = self.switches[s].ports[p].peer {
                        if !visited[peer.ix()] {
                            visited[peer.ix()] = true;
                            parent_port[peer.ix()] = Some(self.switches[s].ports[p].peer_port);
                            order.push_back(peer.ix());
                        }
                    }
                }
            }
            assert!(visited.iter().all(|&v| v), "switch graph is disconnected");

            // Within the tree, compute next-hop-towards-host for every
            // switch by BFS from each host's attachment point along tree
            // edges only.
            let tree_edge = |s: usize, p: u8| -> Option<usize> {
                match self.switches[s].ports[p as usize].peer {
                    NodeRef::Switch(peer) => {
                        let q = self.switches[s].ports[p as usize].peer_port;
                        // Edge (s,p)<->(peer,q) is in the tree iff one side
                        // reaches its parent through it.
                        if parent_port[s] == Some(p) || parent_port[peer.ix()] == Some(q) {
                            Some(peer.ix())
                        } else {
                            None
                        }
                    }
                    NodeRef::Host(_) => None,
                }
            };

            let mut table: Vec<Vec<u8>> = vec![vec![0; self.n_hosts as usize]; n_sw];
            for h in 0..self.n_hosts {
                let _ = HostId(h);
                let attach = match self.host_ports[h as usize].peer {
                    NodeRef::Switch(s) => s.ix(),
                    NodeRef::Host(_) => panic!("host attached to host"),
                };
                let attach_port = self.host_ports[h as usize].peer_port;
                // towards[s] = egress port at s on the unique tree path to h.
                let mut towards: Vec<Option<u8>> = vec![None; n_sw];
                towards[attach] = Some(attach_port);
                let mut q = VecDeque::new();
                q.push_back(attach);
                while let Some(s) = q.pop_front() {
                    for p in 0..self.switches[s].ports.len() as u8 {
                        if let Some(peer) = tree_edge(s, p) {
                            if towards[peer].is_none() {
                                towards[peer] = Some(self.switches[s].ports[p as usize].peer_port);
                                q.push_back(peer);
                            }
                        }
                    }
                }
                for s in 0..n_sw {
                    table[s][h as usize] = towards[s].expect("host unreachable in spanning tree");
                }
            }
            for (s, tbl) in table.into_iter().enumerate() {
                trees_per_switch[s].push(tbl);
            }
        }
        for (s, trees) in trees_per_switch.into_iter().enumerate() {
            self.switches[s].route = Arc::new(RoutingTable::Trees(trees));
        }
        self
    }
}

fn host_port_on(ports: &[PortSpec], h: HostId) -> u8 {
    ports
        .iter()
        .position(|p| matches!(p.peer, NodeRef::Host(x) if x == h))
        .expect("host not attached here") as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_us(2); // 1.5us rounded for tests

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(2, 3, BW, PROP);
        assert_eq!(t.n_hosts, 3);
        assert_eq!(t.n_switches(), 3);
        // sw0: 2 host ports + uplink; sw1: 2 chain ports; sw2: receiver + chain.
        assert_eq!(t.switches[0].ports.len(), 3);
        assert_eq!(t.switches[1].ports.len(), 2);
        assert_eq!(t.switches[2].ports.len(), 2);
    }

    #[test]
    fn dumbbell_paths() {
        let t = Topology::dumbbell(2, 3, BW, PROP);
        let path = t.path_switches(HostId(0), HostId(2), FlowId(0));
        assert_eq!(path, vec![SwitchId(0), SwitchId(1), SwitchId(2)]);
        // Reverse path visits the same switches reversed.
        let back = t.path_switches(HostId(2), HostId(0), FlowId(0));
        assert_eq!(back, vec![SwitchId(2), SwitchId(1), SwitchId(0)]);
    }

    #[test]
    fn line_attachment_paths() {
        // Fig. 11b: sender1 joins at the last switch.
        let t = Topology::line(3, &[0, 2], BW, PROP);
        assert_eq!(
            t.path_switches(HostId(0), HostId(2), FlowId(0)),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        );
        assert_eq!(
            t.path_switches(HostId(1), HostId(2), FlowId(0)),
            vec![SwitchId(2)]
        );
        // And middle-hop attach.
        let t = Topology::line(3, &[0, 1], BW, PROP);
        assert_eq!(
            t.path_switches(HostId(1), HostId(2), FlowId(0)),
            vec![SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn line_routes_between_senders() {
        let t = Topology::line(3, &[0, 2], BW, PROP);
        // sender1 -> sender0 goes left along the chain.
        assert_eq!(
            t.path_switches(HostId(1), HostId(0), FlowId(0)),
            vec![SwitchId(2), SwitchId(1), SwitchId(0)]
        );
    }

    #[test]
    fn star_paths_are_single_hop() {
        let t = Topology::star(5, BW, PROP);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    assert_eq!(
                        t.path_switches(HostId(a), HostId(b), FlowId(0)),
                        vec![SwitchId(0)]
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_counts() {
        let t = Topology::fat_tree(4, BW, PROP);
        assert_eq!(t.n_hosts, 16);
        assert_eq!(t.n_switches(), 8 + 8 + 4);
        let t8 = Topology::fat_tree(8, BW, PROP);
        assert_eq!(t8.n_hosts, 128);
        assert_eq!(t8.n_switches(), 32 + 32 + 16);
    }

    #[test]
    fn fat_tree_intra_tor_path() {
        let t = Topology::fat_tree(4, BW, PROP);
        // hosts 0 and 1 share ToR 0.
        assert_eq!(
            t.path_switches(HostId(0), HostId(1), FlowId(0)),
            vec![SwitchId(0)]
        );
    }

    #[test]
    fn fat_tree_inter_pod_path_has_five_switches() {
        let t = Topology::fat_tree(8, BW, PROP);
        let p = t.path_switches(HostId(0), HostId(127), FlowId(3));
        assert_eq!(p.len(), 5, "ToR-Agg-Core-Agg-ToR, got {p:?}");
    }

    #[test]
    fn fat_tree_paths_are_symmetric_for_acks() {
        // The FNCC prerequisite: ACK path == reversed data path, for many
        // flows and pairs.
        let t = Topology::fat_tree(8, BW, PROP);
        for f in 0..40u32 {
            let src = HostId((f * 13) % 128);
            let dst = HostId((f * 57 + 31) % 128);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric path for flow {f} {src:?}->{dst:?}");
        }
    }

    #[test]
    fn fat_tree_ecmp_uses_multiple_cores() {
        let t = Topology::fat_tree(8, BW, PROP);
        let mut cores_seen = std::collections::HashSet::new();
        for f in 0..64u32 {
            let p = t.path_switches(HostId(0), HostId(127), FlowId(f));
            cores_seen.insert(p[2]); // middle switch is the core
        }
        assert!(
            cores_seen.len() > 8,
            "ECMP concentrated on {} cores",
            cores_seen.len()
        );
    }

    #[test]
    fn leaf_spine_shape_and_paths() {
        // 4 leaves × 8 hosts over 2 spines: 4:1 oversubscription.
        let t = Topology::leaf_spine(4, 2, 8, BW, PROP);
        assert_eq!(t.n_hosts, 32);
        assert_eq!(t.n_switches(), 6);
        for l in 0..4 {
            assert_eq!(t.switches[l].ports.len(), 10);
        }
        for s in 4..6 {
            assert_eq!(t.switches[s].ports.len(), 4);
        }
        // Intra-leaf: one switch; inter-leaf: leaf–spine–leaf.
        assert_eq!(
            t.path_switches(HostId(0), HostId(1), FlowId(0)),
            vec![SwitchId(0)]
        );
        let p = t.path_switches(HostId(0), HostId(31), FlowId(5));
        assert_eq!(p.len(), 3, "leaf-spine-leaf, got {p:?}");
        assert_eq!(p[0], SwitchId(0));
        assert_eq!(p[2], SwitchId(3));
        assert!(p[1].0 >= 4 && p[1].0 < 6, "middle hop not a spine: {p:?}");
    }

    #[test]
    fn leaf_spine_paths_are_symmetric_and_spread() {
        let t = Topology::leaf_spine(6, 4, 6, BW, PROP);
        let mut spines_seen = std::collections::HashSet::new();
        for f in 0..60u32 {
            let src = HostId((f * 7) % 36);
            let dst = HostId((f * 13 + 11) % 36);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric leaf-spine path, flow {f}");
            if fwd.len() == 3 {
                spines_seen.insert(fwd[1]);
            }
        }
        assert!(spines_seen.len() >= 3, "ECMP stuck on {spines_seen:?}");
    }

    #[test]
    fn base_rtt_dumbbell_matches_hand_computation() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        // 4 links each way: 4*(1518B tx + prop) + 4*(70B tx + prop)
        let mtu_tx = BW.tx_time(1518);
        let ack_tx = BW.tx_time(70);
        let expect = (mtu_tx + prop) * 4 + (ack_tx + prop) * 4;
        assert_eq!(t.base_rtt(1518, 70), expect);
        // ~12.6 us, the paper's scale.
        assert!((t.base_rtt(1518, 70).as_us_f64() - 12.5).abs() < 0.5);
    }

    #[test]
    fn ideal_fct_single_packet() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        // One 1000-byte packet + 62B header over 4 links.
        let fct = t.ideal_fct(HostId(0), HostId(2), FlowId(0), 1000, 1456, 62);
        let expect = (BW.tx_time(1062) + prop) * 4;
        assert_eq!(fct, expect);
    }

    #[test]
    fn ideal_fct_streams_at_bottleneck() {
        let prop = TimeDelta::from_ns(1500);
        let t = Topology::dumbbell(2, 3, BW, prop);
        let size = 10_000_000u64; // 10 MB
        let fct = t.ideal_fct(HostId(0), HostId(2), FlowId(0), size, 1456, 62);
        // Dominated by size/bw: 10MB*8/100G = 800us (plus ~5% header).
        let lower = 0.8 * 1.04; // ms
        assert!(fct.as_secs_f64() * 1e3 > lower && fct.as_secs_f64() * 1e3 < 0.9);
    }

    #[test]
    fn spanning_tree_paths_are_symmetric_and_unique() {
        let t = Topology::fat_tree(4, BW, PROP).with_spanning_trees(4);
        for f in 0..30u32 {
            let src = HostId((f * 5) % 16);
            let dst = HostId((f * 11 + 3) % 16);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric spanning-tree path flow {f}");
        }
    }

    #[test]
    fn spanning_trees_give_path_diversity() {
        let t = Topology::fat_tree(4, BW, PROP).with_spanning_trees(4);
        let mut distinct = std::collections::HashSet::new();
        for f in 0..50u32 {
            distinct.insert(t.path_switches(HostId(0), HostId(15), FlowId(f)));
        }
        assert!(distinct.len() >= 2, "all flows took one tree path");
    }

    #[test]
    fn validate_passes_on_all_builders() {
        Topology::dumbbell(4, 3, BW, PROP).validate();
        Topology::line(3, &[0, 1], BW, PROP).validate();
        Topology::star(8, BW, PROP).validate();
        Topology::fat_tree(4, BW, PROP).validate();
        Topology::leaf_spine(3, 2, 4, BW, PROP).validate();
        Topology::jellyfish(8, 3, 2, BW, PROP, 1, 4).validate();
    }

    #[test]
    fn dragonfly_structure_and_symmetry() {
        // 4 groups × 3 routers × 2 hosts = 24 hosts, 12 routers.
        let t = Topology::dragonfly(4, 3, 2, BW, PROP, 4);
        assert_eq!(t.n_hosts, 24);
        assert_eq!(t.n_switches(), 12);
        // Router port count: 2 hosts + 2 intra-group + global share.
        // 6 group pairs round-robin over routers: each group owns 3 pair
        // links spread over 3 routers → 1 global port per router here.
        for sw in &t.switches {
            assert_eq!(sw.ports.len(), 2 + 2 + 1, "ports: {}", sw.ports.len());
        }
        for f in 0..40u32 {
            let src = HostId((f * 5) % 24);
            let dst = HostId((f * 11 + 3) % 24);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric dragonfly path, flow {f}");
        }
    }

    #[test]
    fn jellyfish_is_regular_and_connected() {
        let t = Topology::jellyfish(10, 4, 2, BW, PROP, 7, 4);
        assert_eq!(t.n_hosts, 20);
        assert_eq!(t.n_switches(), 10);
        for sw in &t.switches {
            // 2 host ports + 4 network ports each.
            assert_eq!(sw.ports.len(), 6);
        }
        // Every pair is reachable (trace_path would panic otherwise).
        for a in 0..20u32 {
            let b = (a + 7) % 20;
            if a != b {
                let _ = t.trace_path(HostId(a), HostId(b), FlowId(0));
            }
        }
    }

    #[test]
    fn jellyfish_paths_are_symmetric() {
        let t = Topology::jellyfish(12, 3, 1, BW, PROP, 3, 6);
        for f in 0..50u32 {
            let src = HostId((f * 5) % 12);
            let dst = HostId((f * 7 + 1) % 12);
            if src == dst {
                continue;
            }
            let fwd = t.path_switches(src, dst, FlowId(f));
            let mut rev = t.path_switches(dst, src, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric jellyfish path, flow {f}");
        }
    }

    #[test]
    fn jellyfish_deterministic_per_seed() {
        let a = Topology::jellyfish(10, 3, 1, BW, PROP, 42, 4);
        let b = Topology::jellyfish(10, 3, 1, BW, PROP, 42, 4);
        for h in 1..10u32 {
            assert_eq!(
                a.path_switches(HostId(0), HostId(h), FlowId(0)),
                b.path_switches(HostId(0), HostId(h), FlowId(0)),
            );
        }
    }

    #[test]
    fn path_bandwidth_is_min_link() {
        let t = Topology::dumbbell(2, 2, BW, PROP);
        assert_eq!(t.path_bandwidth(HostId(0), HostId(2), FlowId(0)), BW);
    }
}
