//! The declarative experiment description: [`Scenario`].
//!
//! A scenario is a pure value — *what* to simulate (topology, traffic,
//! congestion control, probes, stop condition), never *how*. Any
//! [`crate::backend::Backend`] can execute it: the packet DES replays every
//! frame, the fluid engine water-fills rates between flow events, and both
//! produce the same [`crate::report::RunReport`] artifact.
//!
//! Here: the schema and what it computes (topologies, flow sets,
//! partitions). `codec.rs`: the JSON form, one table per tagged kind.
//! `validate.rs`: [`Scenario::validate`]. A new `TopologySpec` or
//! `TrafficSpec` variant is its `build` or `flows` arm here, one table line
//! in `codec.rs` (the build fails until it is there) and its range check in
//! `validate.rs` — `DESIGN.md` §Adding a `TrafficSpec` / `TopologySpec`
//! variant.

mod codec;
mod validate;

use fncc_cc::CcKind;
use fncc_des::time::{SimTime, TimeDelta};
pub use fncc_net::fault::FaultSpec;
use fncc_net::ids::{HostId, NodeRef, SwitchId};
use fncc_net::topology::Topology;
use fncc_net::units::Bandwidth;
use fncc_transport::FlowSpec;
use fncc_workloads::arrivals::{poisson_flows, PoissonConfig};
use fncc_workloads::distributions::{FB_HADOOP_BUCKETS, WEB_SEARCH_BUCKETS};
use fncc_workloads::patterns::{incast_storm, staggered_fairness};

/// Which §5.5 trace to draw flow sizes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DCTCP WebSearch (Fig. 14).
    WebSearch,
    /// Facebook Hadoop (Fig. 15).
    FbHadoop,
}

impl Workload {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebSearch => "WebSearch",
            Workload::FbHadoop => "FB_Hadoop",
        }
    }

    /// The reporting buckets of the corresponding figure.
    pub fn buckets(self) -> &'static [u64] {
        match self {
            Workload::WebSearch => &WEB_SEARCH_BUCKETS,
            Workload::FbHadoop => &FB_HADOOP_BUCKETS,
        }
    }

    /// Parse a trace name (case-insensitive; accepts figure aliases).
    pub fn parse(s: &str) -> Option<Workload> {
        match s.to_ascii_lowercase().as_str() {
            "websearch" | "web_search" | "fig14" => Some(Workload::WebSearch),
            "fb_hadoop" | "fbhadoop" | "hadoop" | "fig15" => Some(Workload::FbHadoop),
            _ => None,
        }
    }
}

/// Parse a CC scheme name (case-insensitive). Matches against
/// `CcKind::ALL`, so new schemes parse the moment they are listed there.
pub fn parse_cc(s: &str) -> Option<CcKind> {
    CcKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(s))
}

/// Uniform link parameters of a scenario's network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Link rate in Gb/s (the paper sweeps 100/200/400).
    pub gbps: u64,
    /// One-way propagation delay in nanoseconds.
    pub prop_ns: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            gbps: 100,
            prop_ns: 1500,
        }
    }
}

impl LinkSpec {
    /// The link rate.
    pub fn bandwidth(self) -> Bandwidth {
        Bandwidth::gbps(self.gbps)
    }

    /// The propagation delay.
    pub fn prop(self) -> TimeDelta {
        TimeDelta::from_ns(self.prop_ns)
    }
}

/// Declarative network shape. `build` instantiates the corresponding
/// [`Topology`] with the scenario's [`LinkSpec`].
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Fig. 10: `senders` hosts at the first of `switches` chained switches,
    /// one receiver at the last.
    Dumbbell {
        /// Sender count (hosts 0..senders; the receiver is host `senders`).
        senders: u32,
        /// Chain length (the paper's M = 3).
        switches: u32,
    },
    /// Fig. 11: a chain of `switches`; sender `i` attaches at `attach[i]`,
    /// the receiver at the last switch.
    Line {
        /// Chain length.
        switches: u32,
        /// Attachment switch per sender.
        attach: Vec<u32>,
    },
    /// Single switch over `hosts` hosts.
    Star {
        /// Host count.
        hosts: u32,
    },
    /// Three-level fat-tree with parameter `k` (k³/4 hosts).
    FatTree {
        /// Fat-tree parameter (even; the paper uses 8 → 128 hosts).
        k: u32,
    },
    /// Two-level leaf–spine; oversubscription = `hosts_per_leaf / spines`.
    LeafSpine {
        /// Leaf switch count.
        leaves: u32,
        /// Spine switch count.
        spines: u32,
        /// Hosts per leaf (pick > `spines` for an oversubscribed fabric).
        hosts_per_leaf: u32,
    },
}

impl TopologySpec {
    /// Number of hosts this spec instantiates.
    pub fn n_hosts(&self) -> u32 {
        match self {
            TopologySpec::Dumbbell { senders, .. } => senders + 1,
            TopologySpec::Line { attach, .. } => attach.len() as u32 + 1,
            TopologySpec::Star { hosts } => *hosts,
            TopologySpec::FatTree { k } => k * k * k / 4,
            TopologySpec::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
        }
    }

    /// Instantiate the topology.
    pub fn build(&self, link: LinkSpec) -> Topology {
        let bw = link.bandwidth();
        let prop = link.prop();
        match self {
            TopologySpec::Dumbbell { senders, switches } => {
                Topology::dumbbell(*senders, *switches, bw, prop)
            }
            TopologySpec::Line { switches, attach } => {
                let attach: Vec<usize> = attach.iter().map(|&a| a as usize).collect();
                Topology::line(*switches, &attach, bw, prop)
            }
            TopologySpec::Star { hosts } => Topology::star(*hosts, bw, prop),
            TopologySpec::FatTree { k } => Topology::fat_tree(*k, bw, prop),
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => Topology::leaf_spine(*leaves, *spines, *hosts_per_leaf, bw, prop),
        }
    }
}

/// Declarative traffic pattern. `flows` produces the exact [`FlowSpec`] set
/// for one seed — the single source of truth both backends consume, which
/// is what makes cross-backend comparisons meaningful.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficSpec {
    /// Long-lived flows sized to outlive the horizon: every host except the
    /// receiver (the last host) sends one elephant; flow 0 starts at t = 0,
    /// the rest join at `join_at_us` (§5.1/§5.2).
    Elephants {
        /// When the joining elephants start (the paper: 300 µs).
        join_at_us: u64,
    },
    /// §5.3 fairness staircase: each sender joins one `interval_us` after
    /// the previous and leaves in join order, payloads sized to its
    /// fair-share integral.
    Staircase {
        /// Join/leave period length in microseconds.
        interval_us: u64,
    },
    /// Incast: `fan_in` senders (cycling over hosts ≠ receiver) each fire
    /// `size` bytes at the receiver, a new wave every `gap_us`.
    Incast {
        /// Receiver host id.
        receiver: u32,
        /// Concurrent senders per wave.
        fan_in: u32,
        /// Bytes per sender per wave.
        size: u64,
        /// Number of waves.
        waves: u32,
        /// Wave spacing in microseconds.
        gap_us: u64,
    },
    /// §5.5: Poisson arrivals over random host pairs, sizes from `workload`,
    /// mean offered load `load` per host link.
    Poisson {
        /// Flow-size trace.
        workload: Workload,
        /// Average host-link load (the paper: 0.5).
        load: f64,
        /// Flows per seed.
        flows: u32,
    },
    /// Calibration-bank pattern (`DESIGN.md` §RateModel calibration):
    /// `elephants` long flows saturate the path to the last host from
    /// t = 0 while `mice` short flows arrive behind them once the standing
    /// queue is built — the mice-bucket FCT inflation is what the fluid
    /// model's `queue_rtts` is fitted against.
    MiceBehindElephants {
        /// Elephant count (hosts `0..elephants` each send one).
        elephants: u32,
        /// Elephant size in bytes (finite, so drain runs complete).
        elephant_size: u64,
        /// Mouse count, cycling over the remaining sender hosts.
        mice: u32,
        /// Mouse size in bytes.
        mouse_size: u64,
        /// First mouse start in µs (elephant queue build-up time).
        warmup_us: u64,
        /// Mouse spacing in µs.
        gap_us: u64,
    },
}

impl TrafficSpec {
    /// The exact flow set for one `seed` on `topo`. `sizing_horizon` feeds
    /// patterns whose flow sizes derive from the run length (elephants).
    pub fn flows(
        &self,
        topo: &Topology,
        link: LinkSpec,
        sizing_horizon: SimTime,
        seed: u64,
    ) -> Vec<FlowSpec> {
        let line = link.bandwidth();
        match self {
            TrafficSpec::Elephants { join_at_us } => {
                let n_senders = topo.n_hosts - 1;
                let receiver = HostId(n_senders);
                let elephant = (line.as_f64() / 8.0 * sizing_horizon.as_secs_f64() * 1.5) as u64;
                let join = SimTime::from_us(*join_at_us);
                (0..n_senders)
                    .map(|i| FlowSpec {
                        id: fncc_net::ids::FlowId(i),
                        src: HostId(i),
                        dst: receiver,
                        size: elephant,
                        start: if i == 0 { SimTime::ZERO } else { join },
                    })
                    .collect()
            }
            TrafficSpec::Staircase { interval_us } => {
                let n = topo.n_hosts - 1;
                staggered_fairness(n, HostId(n), line, TimeDelta::from_us(*interval_us))
            }
            TrafficSpec::Incast {
                receiver,
                fan_in,
                size,
                waves,
                gap_us,
            } => incast_storm(
                topo.n_hosts,
                HostId(*receiver),
                *fan_in,
                *size,
                *waves,
                TimeDelta::from_us(*gap_us),
            ),
            TrafficSpec::Poisson {
                workload,
                load,
                flows,
            } => {
                let cdf = match workload {
                    Workload::WebSearch => fncc_workloads::distributions::web_search(),
                    Workload::FbHadoop => fncc_workloads::distributions::fb_hadoop(),
                };
                poisson_flows(
                    &PoissonConfig {
                        n_hosts: topo.n_hosts,
                        line,
                        load: *load,
                        n_flows: *flows,
                        first_id: 0,
                        start: SimTime::ZERO,
                        seed,
                    },
                    &cdf,
                )
            }
            TrafficSpec::MiceBehindElephants {
                elephants,
                elephant_size,
                mice,
                mouse_size,
                warmup_us,
                gap_us,
            } => {
                let n_senders = topo.n_hosts - 1;
                assert!(
                    *elephants < n_senders,
                    "mice_behind_elephants needs at least one non-elephant sender \
                     ({elephants} elephants, {n_senders} senders)"
                );
                let receiver = HostId(n_senders);
                let mouse_hosts = n_senders - elephants;
                let mut flows: Vec<FlowSpec> = (0..*elephants)
                    .map(|i| FlowSpec {
                        id: fncc_net::ids::FlowId(i),
                        src: HostId(i),
                        dst: receiver,
                        size: *elephant_size,
                        start: SimTime::ZERO,
                    })
                    .collect();
                flows.extend((0..*mice).map(|j| FlowSpec {
                    id: fncc_net::ids::FlowId(elephants + j),
                    src: HostId(elephants + (j % mouse_hosts)),
                    dst: receiver,
                    size: *mouse_size,
                    start: SimTime::from_us(warmup_us + j as u64 * gap_us),
                }));
                flows
            }
        }
    }

    /// Flow-size buckets for slowdown reporting.
    pub fn buckets(&self) -> Vec<u64> {
        match self {
            TrafficSpec::Poisson { workload, .. } => workload.buckets().to_vec(),
            // Generic mice/medium/elephant split for fixed-size patterns.
            _ => vec![10_000, 1_000_000, 1_000_000_000],
        }
    }
}

/// Per-scheme parameter overrides. The packet backend and the hybrid's
/// packet foreground read the CC knobs; the fluid backend and the hybrid's
/// fluid background read the calibration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcOverrides {
    /// Disable LHCS (the Fig. 13 "FNCC without LHCS" ablation). FNCC-only;
    /// ignored elsewhere. Packet and hybrid backends.
    pub disable_lhcs: bool,
    /// FNCC's `All_INT_Table` refresh period in µs; 0 = live reads. The
    /// default 1 µs snapshot is what Fig. 8's management module does and
    /// also de-noises the sender's rate estimates — see `DESIGN.md`.
    /// FNCC-only; ignored elsewhere. Packet and hybrid backends.
    pub int_refresh_us: u64,
    /// Measured fluid-model parameters (`None` = the baked-in
    /// [`fncc_fluid::RateModel::paper_default`]). Carried inline in the
    /// scenario file (`overrides.calibration`) so a scenario stays a
    /// self-contained description; produce a set with `fncc-repro
    /// calibrate`. Fluid and hybrid backends; the packet backend ignores it.
    pub calibration: Option<fncc_fluid::CalibrationSet>,
}

impl Default for CcOverrides {
    fn default() -> Self {
        CcOverrides {
            disable_lhcs: false,
            int_refresh_us: 1,
            calibration: None,
        }
    }
}

impl CcOverrides {
    /// The refresh period as the fabric expects it (`None` = live reads).
    pub fn int_refresh(&self) -> Option<TimeDelta> {
        if self.int_refresh_us == 0 {
            None
        } else {
            Some(TimeDelta::from_us(self.int_refresh_us))
        }
    }
}

/// What the packet backend measures while running (the fluid backend keeps
/// only per-flow records; it has no queues to probe).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ProbeSpec {
    /// Telemetry sampling period in nanoseconds (0 = no time series).
    pub sample_ns: u64,
    /// Watch queue depth and utilization at the scenario's congestion point.
    pub congestion_point: bool,
    /// Watch goodput of the first `flow_rates` flows.
    pub flow_rates: u32,
    /// Watch CC pacing rate of the first `cc_rates` flows.
    pub cc_rates: u32,
    /// Arm the flight-recorder trace sink (events land in a separate
    /// `fncc.trace/v1` artifact; the run report is byte-identical either way).
    pub trace: bool,
}

impl ProbeSpec {
    /// Standard microbenchmark probes: 1 µs sampling, congestion point,
    /// `n` flow and pacing rates.
    pub fn micro(sample_ns: u64, n: u32) -> Self {
        ProbeSpec {
            sample_ns,
            congestion_point: true,
            flow_rates: n,
            cc_rates: n,
            trace: false,
        }
    }
}

/// One predicate of the hybrid backend's foreground partition. A flow
/// matching *any* rule of a [`ForegroundSpec`] runs at packet fidelity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionRule {
    /// Flows strictly smaller than `bytes` (latency-sensitive mice).
    SizeBelow {
        /// Exclusive size threshold in bytes.
        bytes: u64,
    },
    /// Flows destined to any of these hosts (incast victim receivers).
    ToHosts {
        /// Destination host ids.
        hosts: Vec<u32>,
    },
    /// Explicitly enumerated flow ids (probed flows).
    FlowIds {
        /// Flow ids.
        ids: Vec<u32>,
    },
    /// The first `n` flows by id (the conventional probe set).
    FirstFlows {
        /// Number of leading flow ids.
        n: u32,
    },
}

impl PartitionRule {
    /// Whether `f` matches this rule.
    pub fn matches(&self, f: &FlowSpec) -> bool {
        match self {
            PartitionRule::SizeBelow { bytes } => f.size < *bytes,
            PartitionRule::ToHosts { hosts } => hosts.contains(&f.dst.0),
            PartitionRule::FlowIds { ids } => ids.contains(&f.id.0),
            PartitionRule::FirstFlows { n } => f.id.0 < *n,
        }
    }
}

/// The hybrid backend's flow partition: which of the scenario's flows run
/// at packet fidelity (the rest drain in the fluid background model).
/// Validated at parse time — see [`Scenario::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForegroundSpec {
    /// Union of predicates; a flow matching any rule is foreground.
    pub rules: Vec<PartitionRule>,
}

impl ForegroundSpec {
    /// Whether `f` runs at packet fidelity under this spec.
    pub fn is_foreground(&self, f: &FlowSpec) -> bool {
        self.rules.iter().any(|r| r.matches(f))
    }

    /// Split `flows` into `(foreground, background)` preserving order.
    /// The background keeps `flows`' own allocation: at fleet scale it is
    /// nearly every flow, and a copy would double the instance's footprint.
    pub fn partition(&self, mut flows: Vec<FlowSpec>) -> (Vec<FlowSpec>, Vec<FlowSpec>) {
        let mut fg = Vec::new();
        flows.retain(|f| {
            let keep = !self.is_foreground(f);
            if !keep {
                fg.push(f.clone());
            }
            keep
        });
        (fg, flows)
    }
}

/// When a run ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Run exactly `us` microseconds of simulated time.
    Horizon {
        /// Horizon in microseconds.
        us: u64,
    },
    /// Run until every flow finished, capped at `cap_ms` past the last
    /// flow's start (flows still unfinished are reported, not an error).
    Drain {
        /// Cap in milliseconds.
        cap_ms: u64,
    },
}

impl StopCondition {
    /// Horizon used to size horizon-dependent traffic (elephants).
    pub fn sizing_horizon(&self) -> SimTime {
        match self {
            StopCondition::Horizon { us } => SimTime::from_us(*us),
            StopCondition::Drain { cap_ms } => SimTime::from_us(cap_ms * 1000),
        }
    }
}

/// A complete declarative experiment: one description, any backend.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Name used in reports and artifact file names.
    pub name: String,
    /// Network shape.
    pub topology: TopologySpec,
    /// Uniform link parameters.
    pub link: LinkSpec,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Congestion-control scheme under test.
    pub cc: CcKind,
    /// Scheme parameter overrides.
    pub overrides: CcOverrides,
    /// Measurement probes (packet backend only).
    pub probes: ProbeSpec,
    /// Foreground partition for the hybrid backend (`None` = scenario is
    /// not hybrid-runnable).
    pub foreground: Option<ForegroundSpec>,
    /// Injected faults (empty = lossless run; backends then skip all
    /// fault machinery and loss recovery, keeping reports byte-identical
    /// with fault-free builds).
    pub faults: Vec<FaultSpec>,
    /// Stop condition.
    pub stop: StopCondition,
    /// Seeds; multi-seed runs average slowdown rows across seeds.
    pub seeds: Vec<u64>,
    /// Worker threads for the packet engine. `0` (the default) runs one
    /// replica on the calling thread; `n ≥ 1` partitions a fat-tree by pod
    /// into per-shard replicas driven by `min(n, shards)` OS threads
    /// (conservative barrier synchronization — reports are byte-identical
    /// at every thread count). Non-fat-tree topologies are one replica at
    /// any value. Other backends ignore it.
    pub threads: u32,
}

impl Scenario {
    /// A scenario skeleton with library defaults: 100 G / 1.5 µs links,
    /// default CC overrides, no probes, drain-with-200 ms-cap stop, seed 1.
    pub fn new(
        name: impl Into<String>,
        topology: TopologySpec,
        traffic: TrafficSpec,
        cc: CcKind,
    ) -> Self {
        Scenario {
            name: name.into(),
            topology,
            link: LinkSpec::default(),
            traffic,
            cc,
            overrides: CcOverrides::default(),
            probes: ProbeSpec::default(),
            foreground: None,
            faults: Vec::new(),
            stop: StopCondition::Drain { cap_ms: 200 },
            seeds: vec![1],
            threads: 0,
        }
    }

    /// Whether the scenario injects any fault. Backends use this to decide
    /// whether to enable transport loss recovery and fault bookkeeping.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The exact `(topology, flow set)` this scenario produces for `seed` —
    /// identical for every backend.
    pub fn instance(&self, seed: u64) -> (Topology, Vec<FlowSpec>) {
        let topo = self.topology.build(self.link);
        let flows = self
            .traffic
            .flows(&topo, self.link, self.stop.sizing_horizon(), seed);
        (topo, flows)
    }

    /// The scenario's congestion point: the switch egress port where its
    /// traffic pattern concentrates, used by the `congestion_point` probe.
    ///
    /// * elephants on a line: the joining sender's attachment switch;
    /// * incast: the receiver's attachment switch (its last hop);
    /// * everything else: the first switch on flow 0's path (the classic
    ///   dumbbell bottleneck).
    pub fn congestion_point(&self, topo: &Topology) -> Option<(SwitchId, u8)> {
        let (observer_src, dst) = match &self.traffic {
            TrafficSpec::Incast { receiver, .. } => {
                let src = (0..topo.n_hosts).find(|&h| h != *receiver)?;
                (HostId(src), HostId(*receiver))
            }
            _ => {
                if topo.n_hosts < 2 {
                    return None;
                }
                (HostId(0), HostId(topo.n_hosts - 1))
            }
        };
        let flow0 = fncc_net::ids::FlowId(0);
        let switch_hops: Vec<(SwitchId, u8)> = topo
            .path_hops(observer_src, dst, flow0)
            .filter_map(|(n, p)| match n {
                NodeRef::Switch(s) => Some((s, p)),
                NodeRef::Host(_) => None,
            })
            .collect();
        match &self.traffic {
            TrafficSpec::Incast { .. } => switch_hops.last().copied(),
            TrafficSpec::Elephants { .. } => {
                if let TopologySpec::Line { attach, .. } = &self.topology {
                    // Congestion forms where the last-attached sender joins.
                    let sw = SwitchId(*attach.last()?);
                    switch_hops.iter().find(|&&(s, _)| s == sw).copied()
                } else {
                    switch_hops.first().copied()
                }
            }
            _ => switch_hops.first().copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_net::ids::FlowId;
    use fncc_net::packet::MAX_HOPS;

    fn sample() -> Scenario {
        Scenario {
            name: "incast-fattree".into(),
            topology: TopologySpec::FatTree { k: 4 },
            link: LinkSpec::default(),
            traffic: TrafficSpec::Incast {
                receiver: 0,
                fan_in: 8,
                size: 200_000,
                waves: 2,
                gap_us: 100,
            },
            cc: CcKind::Fncc,
            overrides: CcOverrides::default(),
            probes: ProbeSpec::micro(1000, 2),
            foreground: None,
            faults: Vec::new(),
            stop: StopCondition::Drain { cap_ms: 50 },
            seeds: vec![1, 2],
            threads: 0,
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let sc = sample();
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed, sc);
        // A fault-free scenario serializes with no 'faults' key at all, so
        // pre-fault documents and their hashes are untouched.
        assert!(!sc.to_json().contains("faults"));
    }

    #[test]
    fn threads_knob_roundtrips_and_stays_off_schema_when_zero() {
        // threads = 0 (one replica) must not appear in the document, so
        // pre-sharding scenario files and their hashes are untouched.
        assert!(!sample().to_json().contains("threads"));
        let sharded = Scenario {
            threads: 4,
            ..sample()
        };
        assert!(sharded.to_json().contains("\"threads\": 4"));
        assert_eq!(Scenario::from_json(&sharded.to_json()).unwrap(), sharded);
    }

    /// One table, both engines: every kind survives JSON parse → emit →
    /// parse, the fabric schedules exactly the listed `(µs, start|end)`
    /// boundaries for it, and the fluid holds the listed capacity factor on
    /// the faulted link at each probed instant.
    #[test]
    fn faults_roundtrip_and_lower_to_fabric_config() {
        use fncc_fluid::{BackgroundFluid, Framing, RateModel};
        use fncc_net::fabric::Ev;
        // Fat-tree k=4: ToR 0 ports 0-1 face hosts, 2-3 are uplinks.
        type Row = (FaultSpec, &'static [(u64, bool)], &'static [(u64, f64)]);
        let table: [Row; 5] = [
            (
                FaultSpec::LinkDown {
                    switch: 0,
                    port: 2,
                    at_us: 50,
                },
                &[(50, true)],
                &[(49, 1.0), (50, 1.0), (400, 1.0)],
            ),
            (
                FaultSpec::LinkUp {
                    switch: 0,
                    port: 2,
                    at_us: 400,
                },
                &[(400, true)],
                &[(399, 1.0), (400, 1.0)],
            ),
            (
                FaultSpec::LinkDegrade {
                    switch: 1,
                    port: 3,
                    from_us: 10,
                    to_us: 90,
                    rate_factor: 0.95,
                    delay_factor: 4.0,
                },
                &[(10, true), (90, false)],
                &[(9, 1.0), (10, 0.95), (89, 0.95), (90, 1.0)],
            ),
            (
                FaultSpec::RandomLoss {
                    switch: 2,
                    port: 2,
                    from_us: 0,
                    to_us: 200,
                    probability: 0.005,
                },
                &[(0, true), (200, false)],
                &[(0, 1.0 - 0.005), (199, 1.0 - 0.005), (200, 1.0)],
            ),
            (
                FaultSpec::StuckPort {
                    switch: 0,
                    port: 0,
                    at_us: 20,
                    duration_us: 30,
                },
                &[(20, true), (50, false)],
                &[(19, 1.0), (20, 1e-6), (49, 1e-6), (50, 1.0)],
            ),
        ];
        let mut sc = sample();
        sc.faults = table.iter().map(|row| row.0).collect();
        sc.validate().unwrap();
        assert!(sc.has_faults());
        let text = sc.to_json();
        let parsed = Scenario::from_json(&text).unwrap();
        assert_eq!(parsed, sc);
        assert_eq!(parsed.to_json(), text);

        let topo = sc.topology.build(sc.link);
        let sim = crate::sim::SimBuilder::new(topo.clone(), sc.cc)
            .fabric(|f| f.faults = sc.faults.clone())
            .build();
        let scheduled: Vec<(usize, u64, bool)> = sim
            .fabric()
            .startup_events()
            .into_iter()
            .filter_map(|(t, ev)| match ev {
                Ev::FaultStart { ix } => Some((ix, t.as_ps() / 1_000_000, true)),
                Ev::FaultEnd { ix } => Some((ix, t.as_ps() / 1_000_000, false)),
                _ => None,
            })
            .collect();
        let want: Vec<(usize, u64, bool)> = table
            .iter()
            .enumerate()
            .flat_map(|(ix, row)| row.1.iter().map(move |&(t, start)| (ix, t, start)))
            .collect();
        assert_eq!(scheduled, want);

        let model = RateModel::paper_default(sc.cc);
        let mut probes: Vec<(u64, u32, f64)> = Vec::new();
        let mut fluid =
            BackgroundFluid::new(topo, model, Framing::default(), Vec::new(), false).unwrap();
        fluid.faults(&sc.faults);
        for (f, _, timeline) in &table {
            let (sw, port) = f.location();
            let link = fluid.link_map().id_of(NodeRef::Switch(SwitchId(sw)), port);
            probes.extend(timeline.iter().map(|&(t, factor)| (t, link, factor)));
        }
        probes.sort_by_key(|p| p.0);
        for (t_us, link, factor) in probes {
            fluid
                .advance_to(SimTime::from_us(t_us).as_secs_f64())
                .unwrap();
            assert_eq!(
                fluid.fault_factor(link).to_bits(),
                factor.to_bits(),
                "link {link} at {t_us} µs"
            );
        }
    }

    /// `from_json` surfaces [`fncc_net::fault::validate`]'s verdict (its
    /// rejection cases are tested beside it).
    #[test]
    fn fault_validation_rejects_malformed_specs() {
        let mut sc = sample();
        sc.faults = vec![FaultSpec::LinkDown {
            switch: 0,
            port: 2,
            at_us: 0,
        }];
        let bad = sc.to_json().replace("\"switch\": 0", "\"switch\": 77");
        assert!(Scenario::from_json(&bad).unwrap_err().contains("switch 77"));
    }

    #[test]
    fn mice_behind_elephants_roundtrips_and_generates_flows() {
        let sc = Scenario {
            topology: TopologySpec::Dumbbell {
                senders: 4,
                switches: 3,
            },
            traffic: TrafficSpec::MiceBehindElephants {
                elephants: 2,
                elephant_size: 4_000_000,
                mice: 16,
                mouse_size: 10_000,
                warmup_us: 60,
                gap_us: 25,
            },
            ..sample()
        };
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed, sc);

        let (topo, flows) = sc.instance(1);
        assert_eq!(flows.len(), 18);
        let receiver = HostId(topo.n_hosts - 1);
        // Elephants: hosts 0/1, full size, t = 0.
        for f in &flows[..2] {
            assert_eq!(f.size, 4_000_000);
            assert_eq!(f.start, SimTime::ZERO);
            assert_eq!(f.dst, receiver);
        }
        // Mice: cycle over the remaining sender hosts, spaced by gap.
        for (j, f) in flows[2..].iter().enumerate() {
            assert_eq!(f.size, 10_000);
            assert_eq!(f.src, HostId(2 + (j as u32 % 2)));
            assert_eq!(f.dst, receiver);
            assert_eq!(f.start, SimTime::from_us(60 + j as u64 * 25));
        }
    }

    #[test]
    #[should_panic]
    fn mice_behind_elephants_needs_a_mouse_host() {
        let sc = Scenario {
            topology: TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            traffic: TrafficSpec::MiceBehindElephants {
                elephants: 2,
                elephant_size: 1_000_000,
                mice: 4,
                mouse_size: 10_000,
                warmup_us: 0,
                gap_us: 10,
            },
            ..sample()
        };
        let _ = sc.instance(1);
    }

    #[test]
    fn calibration_override_roundtrips_and_defaults_to_none() {
        let mut sc = sample();
        assert_eq!(sc.overrides.calibration, None);
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed.overrides.calibration, None);

        sc.overrides.calibration = Some(fncc_fluid::CalibrationSet::paper());
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed, sc);
    }

    #[test]
    fn minimal_document_gets_defaults() {
        let sc = Scenario::from_json(
            r#"{"name":"mini",
                "topology":{"kind":"dumbbell","senders":2,"switches":3},
                "traffic":{"kind":"elephants","join_at_us":300},
                "cc":"FNCC"}"#,
        )
        .unwrap();
        assert_eq!(sc.link, LinkSpec::default());
        assert_eq!(sc.overrides, CcOverrides::default());
        assert_eq!(sc.stop, StopCondition::Drain { cap_ms: 200 });
        assert_eq!(sc.seeds, vec![1]);
        assert_eq!(sc.probes, ProbeSpec::default());
    }

    #[test]
    fn instance_is_deterministic_per_seed() {
        let sc = sample();
        let (ta, fa) = sc.instance(7);
        let (tb, fb) = sc.instance(7);
        assert_eq!(ta.n_hosts, tb.n_hosts);
        assert_eq!(fa, fb);
        assert_eq!(fa.len(), 16);
    }

    #[test]
    fn elephants_size_with_horizon() {
        let sc = Scenario {
            stop: StopCondition::Horizon { us: 1000 },
            traffic: TrafficSpec::Elephants { join_at_us: 300 },
            topology: TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            ..sample()
        };
        let (_, flows) = sc.instance(1);
        assert_eq!(flows.len(), 2);
        // 100 Gb/s × 1 ms × 1.5 / 8 = 18.75 MB.
        assert_eq!(flows[0].size, 18_750_000);
        assert_eq!(flows[0].start, SimTime::ZERO);
        assert_eq!(flows[1].start, SimTime::from_us(300));
    }

    #[test]
    fn congestion_point_per_pattern() {
        // Dumbbell elephants: first switch on the path.
        let dumbbell = Scenario {
            topology: TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            traffic: TrafficSpec::Elephants { join_at_us: 300 },
            ..sample()
        };
        let topo = dumbbell.topology.build(dumbbell.link);
        assert_eq!(
            dumbbell.congestion_point(&topo),
            Some((SwitchId(0), 2)),
            "dumbbell bottleneck is sw0's chain egress"
        );
        // Line with last-hop attach: the attach switch.
        let line = Scenario {
            topology: TopologySpec::Line {
                switches: 3,
                attach: vec![0, 2],
            },
            traffic: TrafficSpec::Elephants { join_at_us: 300 },
            ..sample()
        };
        let topo = line.topology.build(line.link);
        let (sw, _) = line.congestion_point(&topo).unwrap();
        assert_eq!(sw, SwitchId(2));
        // Incast: the receiver's attachment switch, host-facing port.
        let inc = sample();
        let topo = inc.topology.build(inc.link);
        let (sw, port) = inc.congestion_point(&topo).unwrap();
        let path: Vec<_> = topo.path_hops(HostId(1), HostId(0), FlowId(0)).collect();
        let (last, last_port) = *path.last().unwrap();
        assert_eq!(NodeRef::Switch(sw), last);
        assert_eq!(port, last_port);
    }

    #[test]
    fn leaf_spine_scenario_builds_oversubscribed() {
        let sc = Scenario::new(
            "ls",
            TopologySpec::LeafSpine {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 8,
            },
            TrafficSpec::Poisson {
                workload: Workload::FbHadoop,
                load: 0.4,
                flows: 64,
            },
            CcKind::Fncc,
        );
        let (topo, flows) = sc.instance(3);
        assert_eq!(topo.n_hosts, 32);
        assert_eq!(flows.len(), 64);
    }

    #[test]
    fn bad_documents_report_errors() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json(
            r#"{"name":"x","topology":{"kind":"moebius"},
                "traffic":{"kind":"elephants","join_at_us":1},"cc":"fncc"}"#
        )
        .is_err());
        assert!(Scenario::from_json(
            r#"{"name":"x","topology":{"kind":"star","hosts":4},
                "traffic":{"kind":"elephants","join_at_us":1},"cc":"quic"}"#
        )
        .is_err());
        // An optional field that is present but mistyped or out of range
        // is an error, not a silent default (absent still defaults).
        let with = |extra: &str| {
            Scenario::from_json(&format!(
                r#"{{"name":"x","topology":{{"kind":"star","hosts":4}},
                    "traffic":{{"kind":"elephants","join_at_us":1}},"cc":"fncc"{extra}}}"#
            ))
        };
        assert_eq!(with("").unwrap().threads, 0);
        assert_eq!(with(r#","threads":2"#).unwrap().threads, 2);
        for bad in [
            r#","threads":2.5"#,
            r#","threads":-1"#,
            r#","threads":"two""#,
            r#","threads":4294967297"#,
            r#","probes":{"flow_rates":4294967297}"#,
            r#","probes":{"cc_rates":-3}"#,
            r#","probes":{"sample_ns":0.5}"#,
            r#","probes":{"trace":"yes"}"#,
            r#","overrides":{"int_refresh_us":1.5}"#,
            r#","overrides":{"disable_lhcs":1}"#,
        ] {
            assert!(with(bad).is_err(), "accepted {bad}");
        }
    }

    fn hybrid_sample() -> Scenario {
        // mice_behind_elephants: 2 elephants (100 MB) + 8 mice (20 kB), so a
        // size_below cut at 1 MB yields a non-trivial partition.
        Scenario {
            traffic: TrafficSpec::MiceBehindElephants {
                elephants: 2,
                elephant_size: 100_000_000,
                mice: 8,
                mouse_size: 20_000,
                warmup_us: 50,
                gap_us: 10,
            },
            foreground: Some(ForegroundSpec {
                rules: vec![PartitionRule::SizeBelow { bytes: 1_000_000 }],
            }),
            ..sample()
        }
    }

    #[test]
    fn foreground_spec_roundtrips_through_json() {
        let sc = hybrid_sample();
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed.foreground, sc.foreground);
        assert_eq!(parsed, sc);
        // The remaining rule kinds survive serialization too. Poisson traffic
        // spreads destinations over all hosts, so a to_hosts rule naming a
        // quarter of them is neither empty nor all-consuming.
        let sc2 = Scenario {
            traffic: TrafficSpec::Poisson {
                workload: Workload::WebSearch,
                load: 0.3,
                flows: 64,
            },
            foreground: Some(ForegroundSpec {
                rules: vec![
                    PartitionRule::ToHosts {
                        hosts: vec![0, 1, 2, 3],
                    },
                    PartitionRule::FlowIds { ids: vec![0, 3] },
                    PartitionRule::FirstFlows { n: 2 },
                ],
            }),
            ..sample()
        };
        let parsed2 = Scenario::from_json(&sc2.to_json()).unwrap();
        assert_eq!(parsed2.foreground, sc2.foreground);
    }

    #[test]
    fn partition_splits_flows_by_rule_union() {
        let sc = hybrid_sample();
        let (_, flows) = sc.instance(1);
        let fg_spec = sc.foreground.as_ref().unwrap();
        let n = flows.len();
        let (fg, bg) = fg_spec.partition(flows);
        assert_eq!(fg.len() + bg.len(), n);
        assert!(!fg.is_empty() && !bg.is_empty());
        // All mice foreground; the elephants stay background.
        assert!(fg.iter().all(|f| f.size < 1_000_000));
        assert!(bg.iter().all(|f| f.size >= 1_000_000));
    }

    #[test]
    fn validate_rejects_paths_longer_than_the_int_stack() {
        let long = |topology| Scenario {
            topology,
            cc: CcKind::Hpcc,
            ..sample()
        };
        let dumbbell = |switches| TopologySpec::Dumbbell {
            senders: 2,
            switches,
        };
        assert!(long(dumbbell(MAX_HOPS as u32)).validate().is_ok());
        let err = long(dumbbell(10)).validate().unwrap_err();
        assert!(err.contains("10-switch") && err.contains("INT"), "{err}");
        // A line is as deep as its farthest sender.
        let line = |attach| TopologySpec::Line {
            switches: 10,
            attach,
        };
        assert!(long(line(vec![2, 9])).validate().is_ok());
        assert!(long(line(vec![1, 9])).validate().is_err());
        // from_json runs the same validation.
        let json = long(dumbbell(10)).to_json();
        assert!(Scenario::from_json(&json).unwrap_err().contains("INT"));
    }

    #[test]
    fn validate_rejects_degenerate_partitions() {
        // Empty rule list.
        let err = Scenario {
            foreground: Some(ForegroundSpec { rules: vec![] }),
            ..hybrid_sample()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // Rule that matches zero flows (everything is >= 1 byte).
        let err = Scenario {
            foreground: Some(ForegroundSpec {
                rules: vec![PartitionRule::SizeBelow { bytes: 1 }],
            }),
            ..hybrid_sample()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("size_below"), "{err}");

        // Host id beyond the topology.
        let err = Scenario {
            foreground: Some(ForegroundSpec {
                rules: vec![PartitionRule::ToHosts { hosts: vec![999] }],
            }),
            ..hybrid_sample()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("999"), "{err}");

        // Partition that swallows every flow leaves no fluid background.
        let err = Scenario {
            foreground: Some(ForegroundSpec {
                rules: vec![PartitionRule::SizeBelow { bytes: u64::MAX }],
            }),
            ..hybrid_sample()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("background"), "{err}");

        // from_json runs the same validation.
        let sc = Scenario {
            foreground: Some(ForegroundSpec { rules: vec![] }),
            ..hybrid_sample()
        };
        assert!(Scenario::from_json(&sc.to_json()).is_err());

        // Scenarios without a foreground block are always valid.
        assert!(sample().validate().is_ok());
    }
}
