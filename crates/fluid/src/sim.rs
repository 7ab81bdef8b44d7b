//! The fluid event loop: advance time between flow arrivals/completions,
//! re-solving the max-min allocation at every active-set change.
//!
//! Between consecutive events every active flow drains at its allocated
//! rate, so the simulator's cost is `O(events · allocation)` regardless of
//! flow sizes or link speeds — the property that lets it run millions of
//! flows where the packet DES backend tops out at hundreds.
//!
//! FCT composition: a flow's completion time is
//!
//! ```text
//! finish = t_drained(wire bytes at allocated rates)
//!        + pipeline floor (first-frame store-and-forward latency)
//!        + queue_rtts · base_rtt · contention    (see RateModel)
//! ```
//!
//! where `contention = 1 − mean_rate / (η · path line rate)` measures how
//! much of its lifetime the flow spent sharing its path: an uncontended
//! flow drains at the scheme's full rate (contention 0, no queue to sit
//! behind), a flow halved by an elephant pays half the scheme's standing
//! queue. An uncontended flow under an ideal scheme scores a slowdown of
//! exactly 1.0 against [`Topology::ideal_fct`].

use crate::link::LinkMap;
use crate::maxmin::{Rebalance, WaterFiller};
use crate::model::RateModel;
use fncc_des::time::SimTime;
use fncc_net::config::FabricConfig;
use fncc_net::ids::{HostId, NodeRef, SwitchId};
use fncc_net::routing::{egress_avoiding, flow_hash};
use fncc_net::telemetry::{FlowRecord, Telemetry};
use fncc_net::topology::Topology;
use fncc_obs::{Profiler, TraceEvent, TraceSink};
use fncc_transport::FlowSpec;

/// A scheduled change to one switch egress link — the fluid lowering of a
/// scenario fault. `Down`/`Up` fail and restore the physical link (both
/// directions; crossing flows reroute over the surviving ECMP paths exactly
/// as the packet engine's recompiled tables would steer them); `Scale`
/// multiplies the named egress direction's capacity (a degraded link, or
/// random loss modeled as its goodput haircut).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Switch owning the egress.
    pub switch: SwitchId,
    /// Egress port index.
    pub port: u8,
    /// What happens.
    pub change: CapacityChange,
}

/// The kind of capacity change a [`CapacityEvent`] applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CapacityChange {
    /// Link fails: both directions die, crossing flows reroute (or stall
    /// until [`CapacityChange::Up`] when the failure severs their
    /// destination).
    Down,
    /// Link restored: routing reverts to the pristine tables, rerouted
    /// flows move back.
    Up,
    /// Multiply the egress capacity by this factor (a fault window's end is
    /// lowered as the reciprocal, so overlapping faults compose).
    Scale(f64),
}

/// Fabric framing parameters the fluid model needs. The default derives
/// from [`FabricConfig::paper_default`], so the two backends can never
/// silently disagree on wire-byte accounting.
#[derive(Clone, Copy, Debug)]
pub struct Framing {
    /// Payload bytes per full-size frame.
    pub mtu_payload: u32,
    /// Per-frame header overhead in bytes.
    pub header: u32,
    /// ACK frame size (the return leg of the base-RTT computation).
    pub ack_bytes: u32,
}

impl Default for Framing {
    fn default() -> Self {
        Framing::from(&FabricConfig::paper_default())
    }
}

impl From<&FabricConfig> for Framing {
    fn from(cfg: &FabricConfig) -> Self {
        Framing {
            mtu_payload: cfg.mtu_payload(),
            header: cfg.data_header,
            ack_bytes: cfg.ack_base,
        }
    }
}

impl Framing {
    /// Full frame size on the wire (payload + headers) — what the
    /// queue-delay model's base RTT must be computed from.
    #[inline]
    pub fn mtu(&self) -> u32 {
        self.mtu_payload + self.header
    }

    /// Bytes on the wire for `size` application bytes.
    #[inline]
    pub fn wire_bytes(&self, size: u64) -> u64 {
        let npkts = size.div_ceil(self.mtu_payload as u64).max(1);
        size + npkts * self.header as u64
    }
}

/// A fluid run failed in a way that would otherwise corrupt the clock:
/// a zero-capacity link (or a flow allocated a zero rate over one) can
/// never drain, which would silently drive the event loop to `t = ∞`/NaN.
#[derive(Clone, Debug, PartialEq)]
pub struct FluidError {
    /// The flow that could not make progress, when one is identifiable.
    pub flow: Option<fncc_net::ids::FlowId>,
    /// Human-readable diagnosis.
    pub message: String,
}

impl std::fmt::Display for FluidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fluid simulation stalled: {}", self.message)
    }
}

impl std::error::Error for FluidError {}

/// RTTs of continuous bottleneck saturation before a scheme's standing
/// queue is fully built (the `queue_rtts` penalty ramps linearly up to
/// this). Matches the packet backend's observed queue ramp on the elephant
/// microbenchmark (~tens of µs at a ~13 µs RTT).
pub(crate) const QUEUE_BUILD_RTTS: f64 = 4.0;

/// One live flow's drain state, indexed by its allocator slot. Rates are
/// piecewise constant between rebalances, so the loop only materializes a
/// flow's remaining bits when its rate changes or it retires; everything
/// else is pure projection from `(last_sync, remaining, rate)`.
#[derive(Clone, Default)]
pub(crate) struct SlotState {
    /// Index into the sorted spec array.
    pub(crate) spec_ix: u32,
    /// Wire bits left at `last_sync`.
    pub(crate) remaining_bits: f64,
    /// Total wire bits (for the mean-rate contention estimate).
    pub(crate) wire_bits: f64,
    /// Pipeline floor (first-frame store-and-forward latency), seconds.
    pub(crate) floor: f64,
    /// η-scaled path line rate — the rate an uncontended flow of this
    /// scheme would drain at (bits/s).
    pub(crate) fair_line: f64,
    /// Drain start (arrival) time, seconds.
    pub(crate) t_start: f64,
    /// Instant the drain state was last materialized, seconds.
    pub(crate) last_sync: f64,
    /// Allocated rate in effect since `last_sync` (bits/s).
    pub(crate) rate: f64,
    /// Longest closed segment (seconds) over which the flow held one
    /// *constant* contended rate (below `CONTENDED_FRAC · fair_line`).
    /// Feeds the duration→η hook: the oscillation regime needs a stable
    /// equilibrium against a persistent competitor set, and every
    /// re-allocation (a competitor arriving or leaving) resets the
    /// controller's ringing — so the hook keys on the longest contended
    /// constant-rate stretch, not total drain time.
    pub(crate) max_cont: f64,
}

/// A slot counts as contended (for duration→η episode tracking) while its
/// allocated rate sits below this fraction of its uncontended drain rate.
pub(crate) const CONTENDED_FRAC: f64 = 0.95;

/// The request path of `(src → dst, flow)` avoiding dead switch egress
/// ports, as dense link ids into `out`. Each hop resolves through
/// [`egress_avoiding`], so the surviving-ECMP choice is bit-identical to
/// the packet engine's recompiled tables. `None` when the dead set severs
/// the destination (`out` is then unspecified).
pub(crate) fn path_avoiding(
    topo: &Topology,
    links: &LinkMap,
    dead: &[Vec<bool>],
    src: HostId,
    dst: HostId,
    flow: fncc_net::ids::FlowId,
    out: &mut Vec<u32>,
) -> Option<()> {
    out.clear();
    let h = flow_hash(src, dst, flow);
    out.push(links.id_of(NodeRef::Host(src), 0));
    let mut cur = topo.host_ports[src.ix()].peer;
    let mut hops = 0;
    loop {
        hops += 1;
        assert!(hops < 64, "routing loop tracing {src:?}->{dst:?}");
        match cur {
            NodeRef::Host(hh) => {
                debug_assert_eq!(hh, dst, "path reached wrong host");
                return Some(());
            }
            NodeRef::Switch(s) => {
                let sw = &topo.switches[s.ix()];
                let d = &dead[s.ix()];
                let port = egress_avoiding(&sw.route, dst, h, |p| {
                    d.get(p as usize).copied().unwrap_or(false)
                })?;
                out.push(links.id_of(cur, port));
                cur = sw.ports[port as usize].peer;
            }
        }
    }
}

/// Re-walk every live flow's route under the current dead set at a link
/// Down/Up boundary: flows whose surviving path changed move (their drain
/// state materialized at `t`, rate reassigned by the next rebalance),
/// severed flows park in `stalled` with their remaining bits frozen, and
/// stalled flows whose destination became reachable again rejoin.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repath_flows(
    topo: &Topology,
    links: &LinkMap,
    dead: &[Vec<bool>],
    specs: &[FlowSpec],
    filler: &mut WaterFiller,
    slots: &mut Vec<SlotState>,
    active: &mut Vec<u32>,
    stalled: &mut Vec<SlotState>,
    telemetry: &mut Telemetry,
    t: f64,
) {
    let mut path_buf: Vec<u32> = Vec::new();
    let mut i = active.len();
    while i > 0 {
        i -= 1;
        let slot = active[i] as usize;
        let spec = &specs[slots[slot].spec_ix as usize];
        let reachable = path_avoiding(
            topo,
            links,
            dead,
            spec.src,
            spec.dst,
            spec.id,
            &mut path_buf,
        )
        .is_some();
        if reachable && path_buf.as_slice() == filler.path(slot as u32) {
            continue;
        }
        // Materialize the drain state before the rate changes hands.
        let mut st = slots[slot].clone();
        if st.rate > 0.0 {
            st.remaining_bits -= st.rate * (t - st.last_sync);
            if st.rate < st.fair_line * CONTENDED_FRAC {
                st.max_cont = st.max_cont.max(t - st.last_sync);
            }
        }
        st.last_sync = t;
        st.rate = 0.0;
        filler.remove_flow(slot as u32);
        if reachable {
            telemetry.note_rerouted(spec.id);
            let new_slot = filler.add_flow(&path_buf) as usize;
            if new_slot >= slots.len() {
                slots.resize(new_slot + 1, SlotState::default());
            }
            slots[new_slot] = st;
            active[i] = new_slot as u32;
        } else {
            active.swap_remove(i);
            stalled.push(st);
        }
    }
    let mut i = stalled.len();
    while i > 0 {
        i -= 1;
        let spec = &specs[stalled[i].spec_ix as usize];
        if path_avoiding(
            topo,
            links,
            dead,
            spec.src,
            spec.dst,
            spec.id,
            &mut path_buf,
        )
        .is_some()
        {
            let mut st = stalled.swap_remove(i);
            st.last_sync = t;
            st.rate = 0.0;
            let slot = filler.add_flow(&path_buf) as usize;
            if slot >= slots.len() {
                slots.resize(slot + 1, SlotState::default());
            }
            slots[slot] = st;
            active.push(slot as u32);
        }
    }
}

/// Result of a fluid run.
pub struct FluidResult {
    /// Per-flow lifetime records (compatible with the packet backend's
    /// telemetry, so `fncc_core::metrics::fct_slowdowns` applies directly).
    pub telemetry: Telemetry,
    /// Max-min re-allocations performed (the event count).
    pub reallocations: u64,
    /// Peak number of concurrently active flows.
    pub peak_active: usize,
    /// Simulated instant the last flow completed.
    pub horizon: SimTime,
    /// Re-allocations that fell back to a from-scratch solve.
    pub full_solves: u64,
    /// Re-allocations served by the warm-started incremental path.
    pub incremental_solves: u64,
    /// Total per-flow rate writes across all re-allocations — the work
    /// the warm start actually did (`rate_updates / reallocations` is the
    /// mean residual size; a from-scratch loop would write
    /// `Σ active-set sizes`).
    pub rate_updates: u64,
    /// Wall-clock spans over the solver (populated only when `FNCC_PROFILE`
    /// is set; empty otherwise so reports stay deterministic).
    pub profiler: Profiler,
}

impl FluidResult {
    /// Mean FCT slowdown (actual / contention-free ideal) over finished
    /// flows, the cross-backend comparison metric.
    pub fn mean_slowdown(&self, topo: &Topology, framing: Framing) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for rec in self.telemetry.flow_records() {
            let Some(fct) = rec.fct() else { continue };
            let ideal = topo.ideal_fct(
                rec.src,
                rec.dst,
                rec.flow,
                rec.size,
                framing.mtu_payload,
                framing.header,
            );
            sum += (fct.as_secs_f64() / ideal.as_secs_f64().max(f64::MIN_POSITIVE)).max(1.0);
            n += 1;
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }
}

/// Flow-level simulator over a [`Topology`] under a [`RateModel`].
pub struct FluidSim {
    topo: Topology,
    links: LinkMap,
    model: RateModel,
    framing: Framing,
    flows: Vec<FlowSpec>,
    faults: Vec<CapacityEvent>,
    trace: bool,
}

impl FluidSim {
    /// A fluid simulation of `model` over `topo`.
    pub fn new(topo: Topology, model: RateModel) -> Self {
        let links = LinkMap::new(&topo);
        FluidSim {
            topo,
            links,
            model,
            framing: Framing::default(),
            flows: Vec::new(),
            faults: Vec::new(),
            trace: false,
        }
    }

    /// Schedule link-fault capacity events (sorted internally by time).
    pub fn capacity_events(mut self, events: impl IntoIterator<Item = CapacityEvent>) -> Self {
        self.faults.extend(events);
        self.faults.sort_by_key(|e| e.at);
        self
    }

    /// Override framing parameters (defaults match the packet backend).
    pub fn framing(mut self, framing: Framing) -> Self {
        self.framing = framing;
        self
    }

    /// Arm the flight-recorder trace sink: solver begin/end, flow add/remove
    /// events land in the result telemetry's [`TraceSink`].
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Add flows.
    pub fn flows(mut self, flows: impl IntoIterator<Item = FlowSpec>) -> Self {
        self.flows.extend(flows);
        self
    }

    /// The network description.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Framing in effect.
    pub fn framing_params(&self) -> Framing {
        self.framing
    }

    /// Run every flow to completion and return the records.
    ///
    /// Errors when an active flow is allocated a zero rate (a
    /// zero-capacity link in a hand-written scenario): such a flow can
    /// never finish and would otherwise silently drive the clock to
    /// infinity.
    pub fn run(mut self) -> Result<FluidResult, FluidError> {
        // Effective capacities: the scheme sustains η of each link.
        let eta = self.model.utilization;
        let capacity: Vec<f64> = self.links.capacities().iter().map(|&c| c * eta).collect();

        // A zero-capacity link can never drain a flow: reject it up front
        // with a real error rather than letting the event loop (or the
        // topology's serialization-time arithmetic) run off the rails.
        if !self.flows.is_empty() {
            if let Some(l) = capacity.iter().position(|&c| c <= 0.0) {
                return Err(FluidError {
                    flow: None,
                    message: format!(
                        "link {l} has zero capacity; no flow crossing it can ever \
                         finish (zero-bandwidth link in a hand-written scenario?)"
                    ),
                });
            }
        }

        // Scheme standing-queue delay in seconds (0 when there are no
        // flows), from the *configured* framing — an MTU override changes
        // the base RTT the queue-delay model is denominated in.
        let base_rtt = if self.flows.is_empty() {
            0.0
        } else {
            self.topo
                .base_rtt(self.framing.mtu(), self.framing.ack_bytes)
                .as_secs_f64()
        };
        let queue_delay = self.model.queue_rtts * base_rtt;

        self.flows.sort_by_key(|f| f.start);
        let specs = std::mem::take(&mut self.flows);
        let fevents = std::mem::take(&mut self.faults);

        let mut telemetry = Telemetry::new();
        if self.trace {
            telemetry.trace = TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY);
        }
        let h_resolve = telemetry.metrics.histogram("resolve_set_size");
        let mut profiler = Profiler::from_env();
        let ph_solve = profiler.phase("fluid_solve");
        // Trace timestamps: the fluid clock runs in f64 seconds.
        let to_ps = |secs: f64| (secs * 1e12).round() as u64;
        for f in &specs {
            telemetry.flow_started(FlowRecord {
                flow: f.id,
                src: f.src,
                dst: f.dst,
                size: f.size,
                start: f.start,
                finish: None,
            });
        }

        let mut filler = WaterFiller::new(self.links.len());
        filler.begin_incremental(&capacity);
        // Drain state per allocator slot, plus the list of live slots.
        let mut slots: Vec<SlotState> = Vec::new();
        let mut active: Vec<u32> = Vec::new();
        let mut path_buf: Vec<u32> = Vec::new();
        let mut route_buf: Vec<u32> = Vec::new();
        let mut next_arrival = 0usize;
        // Fault state: per-link capacity factor (Scale events compose
        // multiplicatively), per-switch-port dead flags (Down/Up), flows
        // parked because the dead set severs their destination.
        let mut next_fault = 0usize;
        let mut factor: Vec<f64> = vec![1.0; self.links.len()];
        let mut dead: Vec<Vec<bool>> = self
            .topo
            .switches
            .iter()
            .map(|sw| vec![false; sw.ports.len()])
            .collect();
        let mut n_dead = 0usize;
        let mut stalled: Vec<SlotState> = Vec::new();
        let mut t = 0.0f64; // seconds
        let mut reallocations = 0u64;
        let mut rate_updates = 0u64;
        let mut peak_active = 0usize;
        let mut horizon = SimTime::ZERO;
        // Standing-queue state: since when each link has been continuously
        // saturated (NaN = not saturated). Only links the rebalance touched
        // can change state; a link that goes idle re-enters through the
        // allocator's activation hook with a clean history, which also
        // covers whole-network idle gaps.
        let mut sat_since: Vec<f64> = vec![f64::NAN; self.links.len()];

        while next_arrival < specs.len()
            || !active.is_empty()
            || (!stalled.is_empty() && next_fault < fevents.len())
        {
            if active.is_empty() {
                // Jump the clock to the next arrival or fault. The network
                // was idle over the gap, so any standing-queue history is
                // stale. (Stalled flows drain nothing; only a link-up —
                // a fault event — can revive them.)
                let t_arr = if next_arrival < specs.len() {
                    specs[next_arrival].start.as_secs_f64()
                } else {
                    f64::INFINITY
                };
                let t_flt = if next_fault < fevents.len() {
                    fevents[next_fault].at.as_secs_f64()
                } else {
                    f64::INFINITY
                };
                let jump = t_arr.min(t_flt);
                if jump.is_infinite() {
                    break; // only stalled flows remain, nothing can revive them
                }
                t = t.max(jump);
            }
            // Apply every fault event whose time has been reached, then
            // re-walk routes once if any link changed state.
            let mut links_flipped = false;
            while next_fault < fevents.len() && fevents[next_fault].at.as_secs_f64() <= t + 1e-15 {
                let ev = fevents[next_fault];
                next_fault += 1;
                match ev.change {
                    CapacityChange::Scale(f) => {
                        let l = self.links.id_of(NodeRef::Switch(ev.switch), ev.port);
                        factor[l as usize] *= f;
                        // Floor well above zero so the zero-rate guard
                        // stays meaningful: a degraded link is slow, not
                        // dead (Down models dead).
                        let eff = (capacity[l as usize] * factor[l as usize])
                            .max(capacity[l as usize] * 1e-9);
                        filler.set_capacity(l, eff);
                    }
                    CapacityChange::Down | CapacityChange::Up => {
                        let down = matches!(ev.change, CapacityChange::Down);
                        let port = ev.port as usize;
                        let sw = &self.topo.switches[ev.switch.ix()];
                        // A physical link dies whole: fail the reverse
                        // direction through the peer port too, exactly as
                        // the packet fabric does.
                        if dead[ev.switch.ix()][port] != down {
                            dead[ev.switch.ix()][port] = down;
                            n_dead = if down { n_dead + 1 } else { n_dead - 1 };
                        }
                        if let NodeRef::Switch(s2) = sw.ports[port].peer {
                            let p2 = sw.ports[port].peer_port as usize;
                            if dead[s2.ix()][p2] != down {
                                dead[s2.ix()][p2] = down;
                                n_dead = if down { n_dead + 1 } else { n_dead - 1 };
                            }
                        }
                        if telemetry.trace.enabled() {
                            telemetry.trace.record(if down {
                                TraceEvent::LinkDown {
                                    t_ps: to_ps(t),
                                    sw: ev.switch.0,
                                    port: ev.port,
                                }
                            } else {
                                TraceEvent::LinkUp {
                                    t_ps: to_ps(t),
                                    sw: ev.switch.0,
                                    port: ev.port,
                                }
                            });
                        }
                        links_flipped = true;
                    }
                }
            }
            if links_flipped {
                repath_flows(
                    &self.topo,
                    &self.links,
                    &dead,
                    &specs,
                    &mut filler,
                    &mut slots,
                    &mut active,
                    &mut stalled,
                    &mut telemetry,
                    t,
                );
            }
            // Admit every flow whose start time has been reached.
            while next_arrival < specs.len() {
                let s = &specs[next_arrival];
                let start = s.start.as_secs_f64();
                if start > t + 1e-15 {
                    break;
                }
                self.links
                    .path_links_into(&self.topo, s.src, s.dst, s.id, &mut path_buf);
                let wire_bits = self.framing.wire_bytes(s.size) as f64 * 8.0;
                // Pipeline floor: ideal FCT minus pure streaming time at the
                // path bottleneck (what the fluid drain models).
                let ideal = self
                    .topo
                    .ideal_fct(
                        s.src,
                        s.dst,
                        s.id,
                        s.size,
                        self.framing.mtu_payload,
                        self.framing.header,
                    )
                    .as_secs_f64();
                let bottleneck = path_buf
                    .iter()
                    .map(|&l| self.links.capacity(l))
                    .fold(f64::INFINITY, f64::min);
                let floor = (ideal - wire_bits / bottleneck).max(0.0);
                let st = SlotState {
                    spec_ix: next_arrival as u32,
                    remaining_bits: wire_bits,
                    wire_bits,
                    floor,
                    fair_line: bottleneck * eta,
                    t_start: start,
                    last_sync: t,
                    rate: 0.0,
                    max_cont: 0.0,
                };
                if telemetry.trace.enabled() {
                    telemetry.trace.record(TraceEvent::FluidFlowAdd {
                        t_ps: to_ps(t),
                        flow: s.id.0,
                    });
                }
                next_arrival += 1;
                // Under an active fault the pristine path may cross a dead
                // link: reroute over the surviving ECMP members, or park
                // the flow until a link-up reconnects its destination.
                // The n_dead == 0 fast path keeps fault-free runs on the
                // exact pre-fault code path (byte-identical results).
                let route = if n_dead == 0 {
                    &path_buf
                } else if path_avoiding(
                    &self.topo,
                    &self.links,
                    &dead,
                    s.src,
                    s.dst,
                    s.id,
                    &mut route_buf,
                )
                .is_some()
                {
                    if route_buf != path_buf {
                        telemetry.note_rerouted(s.id);
                    }
                    &route_buf
                } else {
                    stalled.push(st);
                    continue;
                };
                let slot = filler.add_flow(route) as usize;
                if slot >= slots.len() {
                    slots.resize(slot + 1, SlotState::default());
                }
                slots[slot] = st;
                active.push(slot as u32);
            }
            peak_active = peak_active.max(active.len());

            // Warm-started re-solve for the changed active set; only flows
            // whose rate moved get their drain state materialized.
            if telemetry.trace.enabled() {
                telemetry.trace.record(TraceEvent::SolveBegin {
                    t_ps: to_ps(t),
                    active: active.len() as u32,
                });
            }
            let full_before = filler.solve_stats().0;
            let span = profiler.begin();
            let outcome = filler.rebalance();
            profiler.end(ph_solve, span);
            if outcome != Rebalance::Noop {
                reallocations += 1;
                rate_updates += filler.changed().len() as u64;
                telemetry
                    .metrics
                    .observe(h_resolve, filler.changed().len() as u64);
            }
            if telemetry.trace.enabled() {
                telemetry.trace.record(TraceEvent::SolveEnd {
                    t_ps: to_ps(t),
                    full: filler.solve_stats().0 > full_before,
                    changed: filler.changed().len() as u32,
                });
            }
            for &slot in filler.changed() {
                let st = &mut slots[slot as usize];
                if st.rate > 0.0 {
                    st.remaining_bits -= st.rate * (t - st.last_sync);
                }
                // Close out the segment [last_sync, t) for contended-
                // episode tracking: the old rate held constant over it.
                if st.rate > 0.0 && st.rate < st.fair_line * CONTENDED_FRAC {
                    st.max_cont = st.max_cont.max(t - st.last_sync);
                }
                st.last_sync = t;
                st.rate = filler.rate(slot);
                if st.rate <= 0.0 {
                    let spec = &specs[st.spec_ix as usize];
                    let choke = filler
                        .path(slot)
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            self.links
                                .capacity(a)
                                .partial_cmp(&self.links.capacity(b))
                                .expect("NaN link capacity")
                        })
                        .map(|l| (l, self.links.capacity(l)));
                    return Err(FluidError {
                        flow: Some(spec.id),
                        message: format!(
                            "flow {:?} ({:?} → {:?}) was allocated a zero rate and can \
                             never finish; narrowest path link {:?} (zero-capacity link \
                             in the scenario?)",
                            spec.id, spec.src, spec.dst, choke
                        ),
                    });
                }
            }

            // Track how long each link has been continuously saturated —
            // the proxy for whether a standing queue had time to build.
            // Links (re)entering service start with no queue history;
            // beyond that, only touched links can change saturation state.
            for &l in filler.activated_links() {
                sat_since[l as usize] = f64::NAN;
            }
            for &l in filler.touched_links() {
                let saturated =
                    filler.link_residual(l) <= 0.01 * capacity[l as usize] * factor[l as usize];
                if !saturated {
                    sat_since[l as usize] = f64::NAN;
                } else if sat_since[l as usize].is_nan() {
                    sat_since[l as usize] = t;
                }
            }

            // Next event: earliest projected completion vs next arrival vs
            // next scheduled fault.
            let t_arr = if next_arrival < specs.len() {
                specs[next_arrival].start.as_secs_f64()
            } else {
                f64::INFINITY
            };
            let t_flt = if next_fault < fevents.len() {
                fevents[next_fault].at.as_secs_f64()
            } else {
                f64::INFINITY
            };
            let mut t_fin = f64::INFINITY;
            for &slot in &active {
                let st = &slots[slot as usize];
                t_fin = t_fin.min(st.last_sync + st.remaining_bits.max(0.0) / st.rate);
            }
            if t_fin.is_infinite() && t_arr.is_infinite() && t_flt.is_infinite() {
                if active.is_empty() {
                    break; // only stalled flows remain, nothing can revive them
                }
                // Unreachable given the zero-rate guard above; defensive.
                let spec = &specs[slots[active[0] as usize].spec_ix as usize];
                return Err(FluidError {
                    flow: Some(spec.id),
                    message: format!(
                        "no active flow can finish and no arrivals remain \
                         (first stuck flow: {:?})",
                        spec.id
                    ),
                });
            }
            t = t_fin.min(t_arr).min(t_flt);
            if t < t_fin {
                continue; // arrival- or fault-only event: nothing can retire yet
            }

            // Retire everything that completed at this instant (tolerance:
            // half a bit — below any meaningful transfer granularity).
            let mut i = active.len();
            while i > 0 {
                i -= 1;
                let slot = active[i];
                let st = &slots[slot as usize];
                let fin = st.last_sync + st.remaining_bits.max(0.0) / st.rate;
                if fin > t + 0.5 / st.rate {
                    continue;
                }
                let spec = &specs[st.spec_ix as usize];
                let mut drain = (t - st.t_start).max(0.0);
                // Contention: how far the flow's lifetime-average rate fell
                // below the scheme's uncontended drain rate on this path.
                // Scales the standing-queue delay so idle-path flows (the
                // common case for mice) pay nothing.
                let mean_rate = if drain > 0.0 {
                    st.wire_bits / drain
                } else {
                    st.fair_line
                };
                let contention = (1.0 - mean_rate / st.fair_line).clamp(0.0, 1.0);
                // Contended-sustained-drain utilization decay (the
                // duration→η hook, Timely only): a drain that shared its
                // bottleneck with a *persistent* competitor set for many
                // RTTs really sustained `effective_eta` of it, not the
                // short-horizon η the shares were computed with. Keyed on
                // the longest contended constant-rate stretch — every
                // re-allocation (workload churn) resets the oscillation
                // and earns no decay. Stretch the recorded drain at retire
                // time — a per-flow FCT correction, like the queue-delay
                // term, so other flows' shares and the event clock are
                // untouched.
                let mut sustained = st.max_cont;
                if st.rate > 0.0 && st.rate < st.fair_line * CONTENDED_FRAC {
                    sustained = sustained.max(t - st.last_sync);
                }
                // Gate on the episode covering (nearly) the whole drain:
                // only flows contended from birth to death — synchronized
                // incast-style drains — ring; a flow that spent part of
                // its life uncontended keeps re-anchoring to the
                // short-horizon utilization (ramp from 80% coverage).
                let birth = if drain > 0.0 {
                    ((sustained / drain - 0.8) / 0.2).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let eta_hook = self.model.effective_eta(sustained, base_rtt, contention);
                let eta_eff = eta + (eta_hook - eta) * birth;
                if eta_eff < eta {
                    drain *= eta / eta_eff;
                }
                // Queue build-up: the deepest standing queue on the path,
                // as the fraction of QUEUE_BUILD_RTTS the bottleneck has
                // been continuously saturated. Transient sharing (mice
                // colliding for microseconds) builds no queue; an elephant
                // holding a link saturated for many RTTs builds the
                // scheme's full standing queue.
                let mut sat_dur = 0.0f64;
                for &l in filler.path(slot) {
                    let since = sat_since[l as usize];
                    if !since.is_nan() {
                        sat_dur = sat_dur.max(t - since);
                    }
                }
                let buildup = if base_rtt > 0.0 {
                    (sat_dur / (QUEUE_BUILD_RTTS * base_rtt)).min(1.0)
                } else {
                    0.0
                };
                let fct_secs = drain + st.floor + queue_delay * contention * buildup;
                let finish = spec.start
                    + fncc_des::time::TimeDelta::from_secs_f64(fct_secs.max(f64::MIN_POSITIVE));
                telemetry.flow_finished(spec.id, finish);
                if finish > horizon {
                    horizon = finish;
                }
                if telemetry.trace.enabled() {
                    telemetry.trace.record(TraceEvent::FluidFlowRemove {
                        t_ps: to_ps(t),
                        flow: spec.id.0,
                    });
                }
                filler.remove_flow(slot);
                active.swap_remove(i);
            }
        }

        let (full_solves, incremental_solves) = filler.solve_stats();
        Ok(FluidResult {
            telemetry,
            reallocations,
            peak_active,
            horizon,
            full_solves,
            incremental_solves,
            rate_updates,
            profiler,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::CcKind;
    use fncc_des::time::TimeDelta;
    use fncc_net::ids::{FlowId, HostId};
    use fncc_net::units::Bandwidth;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_ns(1500);

    fn flow(id: u32, src: u32, dst: u32, size: u64, start_us: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            size,
            start: SimTime::from_us(start_us),
        }
    }

    #[test]
    fn uncontended_flow_has_unit_slowdown_under_ideal_model() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo.clone(), RateModel::ideal())
            .flows([flow(0, 0, 2, 1_000_000, 0)])
            .run()
            .unwrap();
        let s = r.mean_slowdown(&topo, Framing::default());
        assert!((s - 1.0).abs() < 0.02, "slowdown {s}");
        assert!(r.telemetry.all_flows_finished());
    }

    #[test]
    fn two_elephants_halve_throughput() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let size = 10_000_000u64;
        let r = FluidSim::new(topo.clone(), RateModel::ideal())
            .flows([flow(0, 0, 2, size, 0), flow(1, 1, 2, size, 0)])
            .run()
            .unwrap();
        // Both share the 100G bottleneck: each drains at 50G.
        let framing = Framing::default();
        let expect = framing.wire_bytes(size) as f64 * 8.0 / 50e9;
        for rec in r.telemetry.flow_records() {
            let fct = rec.fct().unwrap().as_secs_f64();
            assert!(
                (fct - expect).abs() / expect < 0.05,
                "fct {fct} vs {expect}"
            );
        }
    }

    #[test]
    fn later_arrival_triggers_reallocation() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let size = 10_000_000u64; // 800 µs alone at 100G
        let r = FluidSim::new(topo.clone(), RateModel::ideal())
            .flows([flow(0, 0, 2, size, 0), flow(1, 1, 2, size, 400)])
            .run()
            .unwrap();
        let rec0 = r.telemetry.flow_record(FlowId(0)).unwrap().clone();
        let rec1 = r.telemetry.flow_record(FlowId(1)).unwrap().clone();
        let (f0, f1) = (
            rec0.fct().unwrap().as_secs_f64(),
            rec1.fct().unwrap().as_secs_f64(),
        );
        // Flow 0 runs alone 400 µs, then shares; by max-min symmetry the
        // two equal-size flows see identical FCTs, but flow 0 leaves the
        // network first in absolute time.
        let solo = Framing::default().wire_bytes(size) as f64 * 8.0 / 100e9;
        assert!(f0 > solo && f1 > solo, "f0 {f0} f1 {f1} solo {solo}");
        assert!((f0 - f1).abs() / f0 < 1e-6, "symmetric FCTs: {f0} vs {f1}");
        assert!(
            rec0.finish.unwrap() < rec1.finish.unwrap(),
            "flow 0 exits first"
        );
        assert!(r.reallocations >= 3);
        assert_eq!(r.peak_active, 2);
    }

    #[test]
    fn scheme_models_order_mean_slowdown() {
        // Same contended workload under FNCC vs DCQCN models: DCQCN's
        // longer ramp must cost more slowdown.
        let topo = Topology::dumbbell(4, 3, BW, PROP);
        let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, i, 4, 500_000, 0)).collect();
        let run = |kind| {
            FluidSim::new(
                Topology::dumbbell(4, 3, BW, PROP),
                RateModel::paper_default(kind),
            )
            .flows(flows.clone())
            .run()
            .unwrap()
            .mean_slowdown(&topo, Framing::default())
        };
        let fncc = run(CcKind::Fncc);
        let dcqcn = run(CcKind::Dcqcn);
        assert!(fncc < dcqcn, "FNCC {fncc} vs DCQCN {dcqcn}");
    }

    #[test]
    fn empty_flow_set_is_fine() {
        let topo = Topology::star(4, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal()).run().unwrap();
        assert_eq!(r.reallocations, 0);
        assert_eq!(r.peak_active, 0);
        assert_eq!(r.horizon, SimTime::ZERO);
    }

    #[test]
    fn incast_on_star_finishes_synchronously() {
        let n = 16u32;
        let topo = Topology::star(n + 1, BW, PROP);
        let flows: Vec<FlowSpec> = (0..n).map(|i| flow(i, i, n, 1_000_000, 0)).collect();
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows(flows)
            .run()
            .unwrap();
        assert!(r.telemetry.all_flows_finished());
        // Equal shares of the receiver link: everyone completes together,
        // in two allocation rounds (start + batch completion).
        assert!(r.reallocations <= 3, "reallocations {}", r.reallocations);
        let fcts: Vec<f64> = r
            .telemetry
            .flow_records()
            .map(|rec| rec.fct().unwrap().as_secs_f64())
            .collect();
        let (min, max) = fcts
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!((max - min) / max < 1e-6, "spread {min}..{max}");
    }

    /// Regression (warm start): a heavy churn run must serve most events
    /// from the incremental path and produce identical telemetry semantics
    /// (all flows finish, slowdowns ≥ 1).
    #[test]
    fn poisson_churn_uses_the_incremental_path() {
        let topo = Topology::fat_tree(4, BW, PROP);
        let flows = fncc_workloads::poisson_flows(
            &fncc_workloads::PoissonConfig {
                n_hosts: topo.n_hosts,
                line: BW,
                load: 0.5,
                n_flows: 400,
                first_id: 0,
                start: SimTime::ZERO,
                seed: 7,
            },
            &fncc_workloads::web_search(),
        );
        let r = FluidSim::new(topo.clone(), RateModel::paper_default(CcKind::Fncc))
            .flows(flows)
            .run()
            .unwrap();
        assert!(r.telemetry.all_flows_finished());
        assert_eq!(r.full_solves + r.incremental_solves, r.reallocations);
        assert!(
            r.incremental_solves > r.full_solves * 3,
            "incremental {} vs full {}",
            r.incremental_solves,
            r.full_solves
        );
        let s = r.mean_slowdown(&topo, Framing::default());
        assert!(s >= 1.0 && s.is_finite(), "slowdown {s}");
    }

    /// Regression (zero-rate guard): a zero-capacity link used to trip
    /// only a debug_assert and spin the clock to infinity in release; now
    /// it surfaces a descriptive error before the clock can run away.
    #[test]
    fn zero_capacity_link_surfaces_an_error() {
        let mut topo = Topology::star(4, BW, PROP);
        topo.host_ports[0].bw = Bandwidth::gbps(0);
        let err = match FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 1, 1_000_000, 0)])
            .run()
        {
            Err(e) => e,
            Ok(_) => panic!("zero-capacity run must error"),
        };
        assert!(err.message.contains("zero capacity"), "{}", err.message);
        let shown = format!("{err}");
        assert!(shown.contains("stalled"), "{shown}");
    }

    fn ev(at_us: u64, sw: u32, port: u8, change: CapacityChange) -> CapacityEvent {
        CapacityEvent {
            at: SimTime::from_us(at_us),
            switch: SwitchId(sw),
            port,
            change,
        }
    }

    /// A ToR uplink dies mid-transfer on a fat-tree: flows crossing it move
    /// to the surviving ECMP uplink and still finish; the telemetry counts
    /// them as rerouted.
    #[test]
    fn link_down_reroutes_over_surviving_ecmp() {
        let topo = Topology::fat_tree(4, BW, PROP);
        let size = 10_000_000u64; // ~800 µs alone at 100G
        let flows: Vec<FlowSpec> = (0..2).map(|i| flow(i, i, 14 + i, size, 0)).collect();
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows(flows)
            .capacity_events([
                ev(100, 0, 2, CapacityChange::Down),
                ev(400, 0, 2, CapacityChange::Up),
            ])
            .run()
            .unwrap();
        assert!(r.telemetry.all_flows_finished());
        assert!(
            r.telemetry.counters.rerouted_flows >= 1,
            "rerouted {}",
            r.telemetry.counters.rerouted_flows
        );
    }

    /// A degraded bottleneck (Scale window) lengthens the FCT of a flow
    /// crossing it, and restoring the factor at the window end returns the
    /// link to full speed.
    #[test]
    fn degrade_window_slows_completion() {
        let run = |events: Vec<CapacityEvent>| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            let r = FluidSim::new(topo, RateModel::ideal())
                .flows([flow(0, 0, 2, 10_000_000, 0)])
                .capacity_events(events)
                .run()
                .unwrap();
            let rec = r.telemetry.flow_record(FlowId(0)).unwrap().clone();
            rec.fct().unwrap().as_secs_f64()
        };
        let clean = run(vec![]);
        let degraded = run(vec![
            ev(100, 0, 2, CapacityChange::Scale(0.25)),
            ev(400, 0, 2, CapacityChange::Scale(4.0)),
        ]);
        // 300 µs at quarter speed costs ~225 µs of extra drain.
        assert!(
            degraded > clean + 150e-6,
            "degraded {degraded} vs clean {clean}"
        );
    }

    /// On a dumbbell the bottleneck has no ECMP alternative: a link-down
    /// strands the flow (remaining bits frozen) until the link-up revives
    /// it, and the outage shows up in the FCT.
    #[test]
    fn severed_flow_stalls_until_link_up() {
        let run = |events: Vec<CapacityEvent>| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            FluidSim::new(topo, RateModel::ideal())
                .flows([flow(0, 0, 2, 10_000_000, 0)])
                .capacity_events(events)
                .run()
                .unwrap()
        };
        let clean = run(vec![]);
        let fct_clean = clean
            .telemetry
            .flow_record(FlowId(0))
            .unwrap()
            .fct()
            .unwrap()
            .as_secs_f64();
        let flapped = run(vec![
            ev(100, 0, 2, CapacityChange::Down),
            ev(500, 0, 2, CapacityChange::Up),
        ]);
        assert!(flapped.telemetry.all_flows_finished());
        let fct = flapped
            .telemetry
            .flow_record(FlowId(0))
            .unwrap()
            .fct()
            .unwrap()
            .as_secs_f64();
        // The 400 µs outage is dead time: FCT grows by roughly that much.
        assert!(
            (fct - fct_clean - 400e-6).abs() < 50e-6,
            "fct {fct} vs clean {fct_clean}"
        );
        // A stall is not a reroute — the flow resumed on its only path.
        assert_eq!(flapped.telemetry.counters.rerouted_flows, 0);
    }

    /// A permanent sever leaves the flow unfinished rather than hanging the
    /// event loop or inventing a completion.
    #[test]
    fn permanent_sever_leaves_flow_unfinished() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 2, 10_000_000, 0)])
            .capacity_events([ev(100, 0, 2, CapacityChange::Down)])
            .run()
            .unwrap();
        assert!(!r.telemetry.all_flows_finished());
        assert!(r.telemetry.flow_record(FlowId(0)).unwrap().fct().is_none());
    }

    /// An arrival during an outage that severs its destination parks until
    /// the link returns, then drains normally.
    #[test]
    fn arrival_during_outage_waits_for_link_up() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 2, 1_000_000, 200)])
            .capacity_events([
                ev(100, 0, 2, CapacityChange::Down),
                ev(600, 0, 2, CapacityChange::Up),
            ])
            .run()
            .unwrap();
        assert!(r.telemetry.all_flows_finished());
        let fct = r
            .telemetry
            .flow_record(FlowId(0))
            .unwrap()
            .fct()
            .unwrap()
            .as_secs_f64();
        // Born at 200 µs into a dead network, revived at 600 µs: the FCT
        // carries at least the 400 µs wait.
        assert!(fct > 400e-6, "fct {fct}");
    }

    /// Regression (framing satellite): the queue-delay model's base RTT
    /// must follow the configured framing, not a hardcoded 1518/70. With
    /// jumbo frames the standing-queue penalty of a contended mouse grows
    /// with the (larger) framing-derived RTT.
    #[test]
    fn queue_delay_follows_framing_override() {
        let run = |framing: Framing| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            // An elephant saturates the bottleneck; a late mouse of the
            // same wire length under both framings pays the standing
            // queue. Sizes chosen so wire_bytes are identical.
            let elephant = 50_000_000u64;
            let mouse_payload = 10 * framing.mtu_payload as u64;
            let r = FluidSim::new(topo, RateModel::paper_default(CcKind::Dcqcn))
                .framing(framing)
                .flows([
                    flow(0, 0, 2, elephant, 0),
                    flow(1, 1, 2, mouse_payload, 300),
                ])
                .run()
                .unwrap();
            let rec = r.telemetry.flow_record(FlowId(1)).unwrap().clone();
            rec.fct().unwrap().as_secs_f64()
        };
        let standard = Framing::default();
        let jumbo = Framing {
            mtu_payload: 9000,
            header: standard.header,
            ack_bytes: standard.ack_bytes,
        };
        let fct_std = run(standard);
        let fct_jumbo = run(jumbo);
        // Same wire bits drain at the same shared rate, so the FCT gap is
        // the queue-delay term; the jumbo base RTT is ~6× larger.
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let rtt_std = topo
            .base_rtt(standard.mtu(), standard.ack_bytes)
            .as_secs_f64();
        let rtt_jumbo = topo.base_rtt(jumbo.mtu(), jumbo.ack_bytes).as_secs_f64();
        assert!(rtt_jumbo > 1.1 * rtt_std, "{rtt_jumbo} vs {rtt_std}");
        assert!(
            fct_jumbo > fct_std,
            "jumbo framing must lengthen the standing-queue delay: \
             {fct_jumbo} vs {fct_std}"
        );
    }
}
