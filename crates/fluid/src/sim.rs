//! The fluid engine: advance time between flow arrivals, completions and
//! scheduled link faults, re-solving the max-min allocation whenever the
//! active set or a capacity changed.
//!
//! Between consecutive events every active flow drains at its allocated
//! rate, so the simulator's cost is `O(events · allocation)` regardless of
//! flow sizes or link speeds — the property that lets it run millions of
//! flows where the packet DES backend tops out at hundreds.
//!
//! There is one event loop, [`BackgroundFluid`], and it *steps*, so the
//! hybrid driver can interleave it with a packet DES:
//!
//! * [`BackgroundFluid::next_event`] reports the next fluid event boundary
//!   (arrival, fault or projected completion) so the driver can co-advance
//!   the DES exactly that far;
//! * [`BackgroundFluid::advance_to`] drains flows up to a
//!   wall-of-simulation instant, never past it;
//! * [`BackgroundFluid::reserve`] feeds measured *foreground* (packet)
//!   throughput back as a per-link demand reservation — the water-filler
//!   sees a shrunken capacity via its dirty-link delta API;
//! * [`BackgroundFluid::background_load`] reports the aggregate background
//!   rate on a link.
//!
//! [`FluidSim`] is the run-to-completion facade: a builder that constructs
//! the same engine and steps it until no event is left.
//!
//! Resolves are *deferred*. At one instant the loop retires, then applies
//! faults, then admits; each only flags the allocation stale, and a single
//! rebalance runs before the next projection, and only while flows are
//! draining — so an idle gap costs one rebalance (at the arrival that ends
//! it), not one on each side. `advance_to` settles a pending rebalance
//! before it returns because the driver reads link loads between calls;
//! the run-to-completion entry does not, because nobody reads shares after
//! the last flow retired.
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
//! exactly 1.0 against [`Topology::ideal_fct_on`] its path.

use crate::link::LinkMap;
use crate::maxmin::{Rebalance, WaterFiller};
use crate::model::RateModel;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::config::FabricConfig;
use fncc_net::fault::FaultSpec;
use fncc_net::ids::{FlowId, NodeRef, SwitchId};
use fncc_net::routing::{without_ports, RoutingTable};
use fncc_net::telemetry::FlowRecord;
use fncc_net::topology::Topology;
use fncc_obs::{Histogram, PhaseId, Recorder, TraceEvent};
use fncc_transport::FlowSpec;
use std::collections::BTreeSet;

/// One scheduled boundary of a fault: `faults[ix]` takes effect
/// (`opening`) or its window closes at `at`.
#[derive(Clone, Copy)]
struct Boundary {
    at: SimTime,
    ix: u32,
    opening: bool,
}

/// A capacity window currently open on a link.
struct OpenWindow {
    link: u32,
    /// Index of the fault that opened it.
    ix: u32,
    factor: f64,
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
const QUEUE_BUILD_RTTS: f64 = 4.0;

/// A slot counts as contended (for duration→η episode tracking) while its
/// allocated rate sits below this fraction of its uncontended drain rate.
const CONTENDED_FRAC: f64 = 0.95;

/// Floor on a reserved link's background capacity, as a fraction of its
/// unreserved (η-scaled) capacity. Keeps a fully-reserved link from
/// starving background flows into the zero-rate error path; the sliver
/// models the fair share a saturating foreground burst cannot actually
/// deny a competing long flow.
const RESERVE_FLOOR: f64 = 0.02;

/// One live flow's drain state, indexed by its allocator slot. Rates are
/// piecewise constant between rebalances, so the loop only materializes a
/// flow's remaining bits when its rate changes or it retires; everything
/// else is pure projection from `(last_sync, remaining, rate)`.
#[derive(Clone, Default)]
struct SlotState {
    /// Index into the sorted spec array.
    spec_ix: u32,
    /// Wire bits left at `last_sync`.
    remaining_bits: f64,
    /// Total wire bits (for the mean-rate contention estimate).
    wire_bits: f64,
    /// Pipeline floor (first-frame store-and-forward latency), seconds.
    floor: f64,
    /// η-scaled path line rate — the rate an uncontended flow of this
    /// scheme would drain at (bits/s).
    fair_line: f64,
    /// Drain start (arrival) time, seconds.
    t_start: f64,
    /// Instant the drain state was last materialized, seconds.
    last_sync: f64,
    /// Allocated rate in effect since `last_sync` (bits/s).
    rate: f64,
    /// Longest closed segment (seconds) over which the flow held one
    /// *constant* contended rate (below `CONTENDED_FRAC · fair_line`).
    /// Feeds the duration→η hook: the oscillation regime needs a stable
    /// equilibrium against a persistent competitor set, and every
    /// re-allocation (a competitor arriving or leaving) resets the
    /// controller's ringing — so the hook keys on the longest contended
    /// constant-rate stretch, not total drain time.
    max_cont: f64,
}

impl SlotState {
    /// Materialize the drain state at `t` before the rate changes hands:
    /// drain the bits sent since `last_sync` and close out the segment
    /// `[last_sync, t)` for contended-episode tracking (the old rate held
    /// constant over it).
    fn sync_to(&mut self, t: f64) {
        if self.rate > 0.0 {
            self.remaining_bits -= self.rate * (t - self.last_sync);
            if self.rate < self.fair_line * CONTENDED_FRAC {
                self.max_cont = self.max_cont.max(t - self.last_sync);
            }
        }
        self.last_sync = t;
    }

    fn projection(&self) -> Projection {
        Projection {
            finish: self.last_sync + self.remaining_bits.max(0.0) / self.rate,
            slack: 0.5 / self.rate,
        }
    }
}

/// A slot's projected completion, cached so the per-step boundary scan and
/// the retire test read two numbers instead of re-dividing per flow.
/// [`BackgroundFluid::place`] and [`BackgroundFluid::resolve`] are the
/// only writers of an active slot's `(last_sync, remaining_bits, rate)`,
/// and each re-evaluates [`SlotState::projection`] as it writes.
#[derive(Clone, Copy, Default)]
struct Projection {
    /// Instant the flow drains its last bit at the current rate, seconds.
    finish: f64,
    /// Retire tolerance: the time half a bit takes at the current rate.
    slack: f64,
}

/// Trace timestamps: the fluid clock runs in f64 seconds.
fn to_ps(secs: f64) -> u64 {
    (secs * 1e12).round() as u64
}

/// `spec`'s request path through the live tables `routes`, as dense link
/// ids into `out`; `false` when the dead set severs the destination (`out`
/// is then unspecified).
fn live_path(
    topo: &Topology,
    routes: &[RoutingTable],
    links: &LinkMap,
    spec: &FlowSpec,
    out: &mut Vec<u32>,
) -> bool {
    out.clear();
    for hop in topo.walk_path(|s| &routes[s.ix()], spec.src, spec.dst, spec.id) {
        let Ok((node, port)) = hop else {
            return false;
        };
        out.push(links.id_of(node, port));
    }
    true
}

/// A flow's age-ramped weight: phased in linearly from `floor` at birth to
/// 1 after `ramp` seconds of `age`. The one ramp behind
/// [`BackgroundFluid::ramped_weight_on`], its queue-weight twin and the
/// hybrid coupling's foreground entitlement.
#[inline]
pub fn age_ramp(age: f64, ramp: f64, floor: f64) -> f64 {
    (floor + age / ramp).min(1.0)
}

/// `finish` entry of a flow that has not finished.
const UNFINISHED: SimTime = SimTime::MAX;

/// Result of a fluid run.
pub struct FluidResult {
    /// The run's trace ring and its profiler (the solver span, populated
    /// only when `FNCC_PROFILE` is set). The flows themselves are not
    /// recorded here: [`Self::records`] builds their lifetime records from
    /// the specs and finish times.
    pub rec: Recorder,
    /// Flows whose rate moved, per re-allocation that moved any; empty for
    /// a hybrid background, which no report reads it from.
    pub resolve_set_size: Histogram,
    /// Flows that took a detour around a dead link at least once.
    pub rerouted_flows: u64,
    /// Peak number of concurrently active flows, sampled at the end of
    /// every event instant (flows a link-up revives included).
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
    /// Every flow, in start order.
    specs: Vec<FlowSpec>,
    /// Finish instant per spec ([`UNFINISHED`] for a flow still draining
    /// or stalled when the run ended).
    finish: Vec<SimTime>,
    /// Spec indices in ascending flow id, when start order is not id
    /// order (`None` when it is, as for every shipped generator).
    by_id: Option<Vec<u32>>,
}

impl FluidResult {
    /// Every flow's lifetime record, finished or not, built on the fly in
    /// ascending flow id — the order the packet backend's telemetry walks
    /// its record table, so per-bucket sums add up in the same order.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..self.specs.len()).map(move |k| {
            let ix = self.by_id.as_ref().map_or(k, |order| order[k] as usize);
            let finish = self.finish[ix];
            FlowRecord {
                finish: (finish != UNFINISHED).then_some(finish),
                ..self.specs[ix].record()
            }
        })
    }

    /// Number of flows the run carried: the length of [`Self::records`].
    pub fn flow_count(&self) -> usize {
        self.specs.len()
    }

    /// Max-min re-allocations performed (the event count): every
    /// rebalance that had a delta to resolve was full or incremental.
    pub fn reallocations(&self) -> u64 {
        self.full_solves + self.incremental_solves
    }

    /// Mean FCT slowdown (actual / contention-free ideal) over finished
    /// flows, the cross-backend comparison metric.
    pub fn mean_slowdown(&self, topo: &Topology, framing: Framing) -> f64 {
        let mut path = Vec::new();
        let (sum, n) = self
            .records()
            .filter_map(|rec| topo.slowdown(&rec, framing.mtu_payload, framing.header, &mut path))
            .fold((0.0, 0usize), |(sum, n), s| (sum + s, n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }
}

/// Flow-level simulator over a [`Topology`] under a [`RateModel`]: the
/// run-to-completion builder facade over [`BackgroundFluid`].
pub struct FluidSim {
    topo: Topology,
    model: RateModel,
    framing: Framing,
    flows: Vec<FlowSpec>,
    faults: Vec<FaultSpec>,
    trace: bool,
}

impl FluidSim {
    /// A fluid simulation of `model` over `topo`.
    pub fn new(topo: Topology, model: RateModel) -> Self {
        FluidSim {
            topo,
            model,
            framing: Framing::default(),
            flows: Vec::new(),
            faults: Vec::new(),
            trace: false,
        }
    }

    /// Inject faults (see [`BackgroundFluid::faults`] for the fluid model of
    /// each kind).
    pub fn faults(mut self, faults: &[FaultSpec]) -> Self {
        self.faults.extend_from_slice(faults);
        self
    }

    /// Override framing parameters (defaults match the packet backend).
    pub fn framing(mut self, framing: Framing) -> Self {
        self.framing = framing;
        self
    }

    /// Arm the flight-recorder trace sink: solver begin/end, flow add/remove
    /// events land in the result recorder's trace ring.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Add flows. The first call's `Vec` becomes the engine's flow table
    /// as it is, without a copy.
    pub fn flows(mut self, flows: impl Into<Vec<FlowSpec>>) -> Self {
        let mut flows = flows.into();
        if self.flows.is_empty() {
            self.flows = flows;
        } else {
            self.flows.append(&mut flows);
        }
        self
    }

    /// Run every flow to completion and return the records.
    ///
    /// Errors when an active flow is allocated a zero rate (a
    /// zero-capacity link in a hand-written scenario): such a flow can
    /// never finish and would otherwise silently drive the clock to
    /// infinity.
    pub fn run(self) -> Result<FluidResult, FluidError> {
        let mut engine = BackgroundFluid::with_labels(
            self.topo,
            self.model,
            self.framing,
            self.flows,
            self.trace,
            "fluid_solve",
        )?;
        engine.resolve_set_size = Some(Histogram::new());
        engine.faults(&self.faults);
        engine.run_to_end()?;
        Ok(engine.into_result())
    }
}

/// The fluid engine, one event instant at a time. [`FluidSim::run`] steps
/// it until nothing is left; the hybrid driver constructs it with every
/// background flow up front and alternates [`Self::advance_to`] with DES
/// chunks, exchanging reservations and backlogs at event boundaries.
pub struct BackgroundFluid {
    topo: Topology,
    links: LinkMap,
    model: RateModel,
    framing: Framing,
    /// All flows, sorted by start time.
    specs: Vec<FlowSpec>,
    /// Finish instant per spec, [`UNFINISHED`] until it retires.
    finish: Vec<SimTime>,
    next_arrival: usize,
    filler: WaterFiller,
    /// Drain state and cached projection per allocator slot, plus the
    /// list of live slots.
    slots: Vec<SlotState>,
    proj: Vec<Projection>,
    active: Vec<u32>,
    /// Scratch: an arrival's traced hops, its pristine path as link ids,
    /// and its route around dead links.
    hop_buf: Vec<(NodeRef, u8)>,
    path_buf: Vec<u32>,
    route_buf: Vec<u32>,
    /// Fluid clock, seconds.
    t: f64,
    base_rtt: f64,
    /// Scheme standing-queue delay in seconds (`queue_rtts · base_rtt`).
    queue_delay: f64,
    eta: f64,
    /// η-scaled link capacities with no foreground reservation.
    capacity_base: Vec<f64>,
    /// Current foreground demand reservation per link, bits/s.
    reservation: Vec<f64>,
    /// Capacity currently presented to the water-filler per link
    /// (`capacity_base` minus the η-scaled reservation, floored).
    eff_capacity: Vec<f64>,
    /// Since when each link has been continuously saturated (NaN = not).
    /// Only links a rebalance touched can change state; a link that goes
    /// idle re-enters through the allocator's activation hook with a clean
    /// history, which also covers whole-network idle gaps.
    sat_since: Vec<f64>,
    /// Injected faults, and their start/end boundaries sorted by time.
    faults: Vec<FaultSpec>,
    fevents: Vec<Boundary>,
    next_fault: usize,
    /// Capacity windows currently open (degradation, loss, stuck port).
    open: Vec<OpenWindow>,
    /// Per-link capacity factor: the product over the link's open windows,
    /// so exactly 1.0 once they have all closed (composes multiplicatively
    /// with foreground reservations).
    factor: Vec<f64>,
    /// Per-switch-port dead flags from link down/up faults.
    dead: Vec<Vec<bool>>,
    n_dead: usize,
    /// Each switch's forwarding table under `dead`: the pristine one
    /// (shared with the topology) for a switch with no dead port, else
    /// [`without_ports`] of it — the table a faulted packet switch
    /// forwards through.
    routes: Vec<RoutingTable>,
    /// Flows parked because the dead set severs their destination.
    stalled: Vec<SlotState>,
    /// The active set or a capacity changed since the last rebalance.
    needs_resolve: bool,
    rec: Recorder,
    ph_solve: PhaseId,
    /// Flows whose rate moved, per re-allocation that moved any: recorded
    /// for a fluid run ([`FluidSim::run`]) only.
    resolve_set_size: Option<Histogram>,
    /// Flows that took a detour around a dead link (each counted once).
    rerouted: BTreeSet<FlowId>,
    rate_updates: u64,
    peak_active: usize,
}

impl BackgroundFluid {
    /// A stepping fluid engine over `topo` under `model`, pre-loaded with
    /// the full background flow set. Rejects zero-capacity links up front
    /// (same contract as [`FluidSim::run`]).
    pub fn new(
        topo: Topology,
        model: RateModel,
        framing: Framing,
        flows: Vec<FlowSpec>,
        trace: bool,
    ) -> Result<Self, FluidError> {
        Self::with_labels(topo, model, framing, flows, trace, "bg_fluid_solve")
    }

    /// [`Self::new`] naming the solver span, which a report keys on to tell
    /// a fluid run from a hybrid background.
    fn with_labels(
        topo: Topology,
        model: RateModel,
        framing: Framing,
        mut flows: Vec<FlowSpec>,
        trace: bool,
        span: &'static str,
    ) -> Result<Self, FluidError> {
        let links = LinkMap::new(&topo);
        // Effective capacities: the scheme sustains η of each link.
        let eta = model.utilization;
        let capacity_base: Vec<f64> = links.capacities().iter().map(|&c| c * eta).collect();
        // A zero-capacity link can never drain a flow: reject it up front
        // with a real error rather than letting the event loop (or the
        // topology's serialization-time arithmetic) run off the rails.
        if !flows.is_empty() {
            if let Some(l) = capacity_base.iter().position(|&c| c <= 0.0) {
                return Err(FluidError {
                    flow: None,
                    message: format!(
                        "link {l} has zero capacity; no flow crossing it can ever \
                         finish (zero-bandwidth link in a hand-written scenario?)"
                    ),
                });
            }
        }
        // From the *configured* framing — an MTU override changes the base
        // RTT the queue-delay model is denominated in (0 with no flows).
        let base_rtt = if flows.is_empty() {
            0.0
        } else {
            topo.base_rtt(framing.mtu(), framing.ack_bytes)
                .as_secs_f64()
        };
        let queue_delay = model.queue_rtts * base_rtt;
        // Every shipped generator emits flows in start order already; a
        // stable sort would only copy them into a scratch buffer.
        if !flows.is_sorted_by_key(|f| f.start) {
            flows.sort_by_key(|f| f.start);
        }

        let mut rec = Recorder::new(trace);
        let ph_solve = rec.profiler.phase(span);
        let mut filler = WaterFiller::new(links.len());
        filler.begin_incremental(&capacity_base);
        let n = links.len();
        let dead = topo
            .switches
            .iter()
            .map(|sw| vec![false; sw.ports.len()])
            .collect();
        let routes = topo.switches.iter().map(|sw| sw.route.clone()).collect();
        Ok(BackgroundFluid {
            topo,
            links,
            model,
            framing,
            finish: vec![UNFINISHED; flows.len()],
            specs: flows,
            next_arrival: 0,
            filler,
            slots: Vec::new(),
            proj: Vec::new(),
            active: Vec::new(),
            hop_buf: Vec::new(),
            path_buf: Vec::new(),
            route_buf: Vec::new(),
            t: 0.0,
            base_rtt,
            queue_delay,
            eta,
            eff_capacity: capacity_base.clone(),
            capacity_base,
            reservation: vec![0.0; n],
            sat_since: vec![f64::NAN; n],
            faults: Vec::new(),
            fevents: Vec::new(),
            next_fault: 0,
            open: Vec::new(),
            factor: vec![1.0; n],
            dead,
            n_dead: 0,
            routes,
            stalled: Vec::new(),
            needs_resolve: false,
            rec,
            ph_solve,
            resolve_set_size: None,
            rerouted: BTreeSet::new(),
            rate_updates: 0,
            peak_active: 0,
        })
    }

    /// Inject faults, before the first step. Link down/up fail and restore
    /// the physical link — both directions; crossing flows reroute over
    /// the surviving ECMP paths exactly as the packet engine's rebuilt
    /// tables would steer them, or stall until the link returns when the
    /// failure severs their destination. The window kinds scale the named
    /// egress direction's capacity while open, overlapping windows
    /// composing multiplicatively: a degraded link by its `rate_factor`
    /// (`delay_factor` has no fluid analogue — the model carries no
    /// per-hop latency inflation), random loss by its goodput haircut (a
    /// loss probability `p` costs the go-back-N sender roughly a `1 − p`
    /// throughput factor), and a stuck port is a near-dead link (`1e-6` of
    /// capacity — not zero, so the zero-rate guard still catches genuinely
    /// broken scenarios).
    pub fn faults(&mut self, faults: &[FaultSpec]) {
        for f in faults {
            let ix = self.faults.len() as u32;
            self.faults.push(*f);
            let (start, end) = f.span_us();
            let boundary = |us, opening| Boundary {
                at: SimTime::from_us(us),
                ix,
                opening,
            };
            self.fevents.push(boundary(start, true));
            self.fevents.extend(end.map(|us| boundary(us, false)));
        }
        self.fevents.sort_by_key(|b| b.at);
    }

    /// Current fluid clock, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Number of background flows still draining, parked behind a link
    /// failure, or yet to arrive.
    #[inline]
    pub fn remaining_flows(&self) -> usize {
        self.active.len() + self.stalled.len() + (self.specs.len() - self.next_arrival)
    }

    /// Peak number of concurrently active background flows so far
    /// (sampled at the end of every event instant).
    #[inline]
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// The dense link index shared with the driver (for translating link
    /// ids to `(node, port)` residual pushes).
    #[inline]
    pub fn link_map(&self) -> &LinkMap {
        &self.links
    }

    /// The next event instant — the earliest of the next arrival, the next
    /// scheduled fault and the earliest projected completion — and that
    /// earliest completion; infinite when nothing is left. Projections are
    /// only meaningful with no resolve pending.
    fn next_boundary(&self) -> (f64, f64) {
        let t_arr = self
            .specs
            .get(self.next_arrival)
            .map_or(f64::INFINITY, |s| s.start.as_secs_f64());
        let t_flt = self
            .fevents
            .get(self.next_fault)
            .map_or(f64::INFINITY, |e| e.at.as_secs_f64());
        // Four independent minima: one running `min` is a chain of
        // dependent compares, a few hundred long at fleet scale.
        let mut lanes = [f64::INFINITY; 4];
        let mut quads = self.active.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &slot) in lanes.iter_mut().zip(quad) {
                *lane = lane.min(self.proj[slot as usize].finish);
            }
        }
        for &slot in quads.remainder() {
            lanes[0] = lanes[0].min(self.proj[slot as usize].finish);
        }
        let t_fin = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
        (t_arr.min(t_flt).min(t_fin), t_fin)
    }

    /// The next fluid event boundary (arrival, fault or earliest projected
    /// completion), or `None` when nothing is left. Resolves any pending
    /// reservation first so projections use current shares.
    pub fn next_event(&mut self) -> Option<f64> {
        if self.needs_resolve {
            // A stale-rate projection would hand the driver a wrong
            // boundary; re-solve eagerly (errors surface in advance_to).
            let _ = self.resolve();
        }
        let (t_next, _) = self.next_boundary();
        t_next.is_finite().then_some(t_next)
    }

    /// Process the next event instant if it falls at or before `t_target`;
    /// `false` when it does not (or nothing is left). Resolves are
    /// *deferred*: retiring, fault application and admission only flag the
    /// allocation stale, and one rebalance runs here, before the next
    /// projection, once flows are draining again — so an instant that
    /// retires, reroutes and admits costs one solve, and an idle gap costs
    /// the one at its far end.
    fn step(&mut self, t_target: f64) -> Result<bool, FluidError> {
        if self.needs_resolve && !self.active.is_empty() {
            self.resolve()?;
        }
        let (t_next, t_fin) = self.next_boundary();
        if t_next > t_target || t_next.is_infinite() {
            return Ok(false);
        }
        self.t = t_next;
        // An arrival- or fault-only instant cannot retire anything yet.
        if t_fin <= t_next {
            self.retire_due();
        }
        self.apply_due_faults();
        self.admit_due();
        // Once per instant, after faults and arrivals, so flows a link-up
        // revived count as arrivals do.
        self.peak_active = self.peak_active.max(self.active.len());
        Ok(true)
    }

    /// Advance the background fluid to `t_target` (seconds), admitting and
    /// retiring every flow whose event falls at or before it. The clock
    /// lands exactly on `t_target`, with shares settled: the driver reads
    /// loads and pushes reservations between calls.
    pub fn advance_to(&mut self, t_target: f64) -> Result<(), FluidError> {
        while self.step(t_target)? {}
        if self.needs_resolve {
            self.resolve()?;
        }
        if t_target > self.t {
            self.t = t_target;
        }
        Ok(())
    }

    /// Step until every flow has finished, or only flows stalled behind a
    /// failure no scheduled event repairs are left. Nobody reads shares
    /// after the last retirement, so no trailing rebalance is settled.
    fn run_to_end(&mut self) -> Result<(), FluidError> {
        while self.remaining_flows() > 0 && self.step(f64::INFINITY)? {}
        // Unreachable given the zero-rate guard in `resolve`; defensive.
        if let Some(&slot) = self.active.first() {
            let spec = &self.specs[self.slots[slot as usize].spec_ix as usize];
            return Err(FluidError {
                flow: Some(spec.id),
                message: format!(
                    "no active flow can finish and no arrivals remain \
                     (first stuck flow: {:?})",
                    spec.id
                ),
            });
        }
        Ok(())
    }

    /// Feed measured foreground throughput on link `l` back as a demand
    /// reservation (bits/s of raw link bandwidth). The background sees
    /// `η · (raw − load)`, floored at a sliver of the unreserved capacity;
    /// the capacity delta rides the water-filler's dirty-link API and is
    /// applied at the next resolve.
    pub fn reserve(&mut self, l: u32, load_bits_per_sec: f64) {
        self.reservation[l as usize] = load_bits_per_sec.max(0.0);
        self.update_eff(l);
    }

    /// Recompute the capacity presented to the water-filler for link `l`:
    /// fault-scaled base minus the η-scaled foreground reservation,
    /// floored at a sliver of the (scaled) unreserved capacity — and well
    /// above zero, so the zero-rate guard stays meaningful: a degraded
    /// link is slow, not dead (link down models dead).
    fn update_eff(&mut self, l: u32) {
        let li = l as usize;
        let base = self.capacity_base[li] * self.factor[li];
        let eff = (base - self.eta * self.reservation[li])
            .max(RESERVE_FLOOR * base)
            .max(self.capacity_base[li] * 1e-9);
        if eff != self.eff_capacity[li] {
            self.eff_capacity[li] = eff;
            self.filler.set_capacity(l, eff);
            self.needs_resolve = true;
        }
    }

    /// Apply every fault boundary at or before the current clock: a window
    /// opening or closing re-derives its link's capacity factor from the
    /// windows still open there; link down/up flip the dead flags on both
    /// directions of the physical link — it dies whole, exactly as in the
    /// packet fabric — rebuild the flipped switches' tables as
    /// [`without_ports`], and re-walk every flow's route once.
    fn apply_due_faults(&mut self) {
        let mut links_flipped = false;
        while let Some(&b) = self.fevents.get(self.next_fault) {
            if b.at.as_secs_f64() > self.t + 1e-15 {
                break;
            }
            self.next_fault += 1;
            let (sw, port) = self.faults[b.ix as usize].location();
            let switch = SwitchId(sw);
            let down = match self.faults[b.ix as usize] {
                FaultSpec::LinkDown { .. } => true,
                FaultSpec::LinkUp { .. } => false,
                FaultSpec::LinkDegrade { rate_factor, .. } => {
                    self.window_boundary(b, switch, port, rate_factor);
                    continue;
                }
                FaultSpec::RandomLoss { probability, .. } => {
                    self.window_boundary(b, switch, port, 1.0 - probability.min(0.999_999));
                    continue;
                }
                FaultSpec::StuckPort { .. } => {
                    self.window_boundary(b, switch, port, 1e-6);
                    continue;
                }
            };
            let near = &self.topo.switches[switch.ix()].ports[port as usize];
            let far = match near.peer {
                NodeRef::Switch(s2) => Some((s2.ix(), near.peer_port as usize)),
                NodeRef::Host(_) => None,
            };
            for (s, p) in std::iter::once((switch.ix(), port as usize)).chain(far) {
                if self.dead[s][p] != down {
                    self.dead[s][p] = down;
                    self.n_dead = if down {
                        self.n_dead + 1
                    } else {
                        self.n_dead - 1
                    };
                    let pristine = &self.topo.switches[s].route;
                    self.routes[s] = if self.dead[s].contains(&true) {
                        without_ports(pristine, &self.dead[s])
                    } else {
                        pristine.clone()
                    };
                }
            }
            if self.rec.trace.enabled() {
                let t_ps = to_ps(self.t);
                self.rec.trace.record(if down {
                    TraceEvent::LinkDown { t_ps, sw, port }
                } else {
                    TraceEvent::LinkUp { t_ps, sw, port }
                });
            }
            links_flipped = true;
        }
        if links_flipped {
            self.repath_flows();
            self.needs_resolve = true;
        }
    }

    /// Open or close fault `b.ix`'s capacity window on the egress link at
    /// `(switch, port)` and set the link's factor to the product over the
    /// windows still open there — the empty product, exactly 1.0, once the
    /// last one closes.
    fn window_boundary(&mut self, b: Boundary, switch: SwitchId, port: u8, factor: f64) {
        let link = self.links.id_of(NodeRef::Switch(switch), port);
        if b.opening {
            self.open.push(OpenWindow {
                link,
                ix: b.ix,
                factor,
            });
        } else {
            self.open.retain(|w| w.ix != b.ix);
        }
        self.factor[link as usize] = self
            .open
            .iter()
            .filter(|w| w.link == link)
            .map(|w| w.factor)
            .product();
        self.update_eff(link);
    }

    /// Put `st` in allocator slot `slot`, growing the slot table to fit.
    fn place(&mut self, slot: u32, st: SlotState) {
        let slot = slot as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, SlotState::default());
            self.proj.resize(slot + 1, Projection::default());
        }
        self.proj[slot] = st.projection();
        self.slots[slot] = st;
    }

    /// Re-walk every live flow's route under the current dead set at a link
    /// Down/Up boundary: flows whose surviving path changed move (their
    /// drain state materialized now, rate reassigned by the next
    /// rebalance), severed flows park in `stalled` with their remaining
    /// bits frozen, and stalled flows whose destination became reachable
    /// again rejoin.
    fn repath_flows(&mut self) {
        let mut i = self.active.len();
        while i > 0 {
            i -= 1;
            let slot = self.active[i];
            let spec = &self.specs[self.slots[slot as usize].spec_ix as usize];
            let reachable = live_path(
                &self.topo,
                &self.routes,
                &self.links,
                spec,
                &mut self.route_buf,
            );
            if reachable && self.route_buf.as_slice() == self.filler.path(slot) {
                continue;
            }
            let mut st = self.slots[slot as usize].clone();
            st.sync_to(self.t);
            st.rate = 0.0;
            self.filler.remove_flow(slot);
            if reachable {
                self.rerouted.insert(spec.id);
                let new_slot = self.filler.add_flow(&self.route_buf);
                self.active[i] = new_slot;
                self.place(new_slot, st);
            } else {
                self.active.swap_remove(i);
                self.stalled.push(st);
            }
        }
        let mut i = self.stalled.len();
        while i > 0 {
            i -= 1;
            let spec = &self.specs[self.stalled[i].spec_ix as usize];
            if live_path(
                &self.topo,
                &self.routes,
                &self.links,
                spec,
                &mut self.route_buf,
            ) {
                let mut st = self.stalled.swap_remove(i);
                st.last_sync = self.t;
                st.rate = 0.0;
                let slot = self.filler.add_flow(&self.route_buf);
                self.active.push(slot);
                self.place(slot, st);
            }
        }
    }

    /// Aggregate background rate currently allocated across link `l`,
    /// bits/s (0 for idle links).
    pub fn background_load(&self, l: u32) -> f64 {
        if !self.filler.is_active(l) {
            return 0.0;
        }
        let li = l as usize;
        (self.eff_capacity[li] - self.filler.link_residual(l)).max(0.0)
    }

    /// The capacity factor faults currently impose on link `l`: the product
    /// over its open degradation, loss and stuck-port windows, 1.0 with
    /// none open.
    #[inline]
    pub fn fault_factor(&self, l: u32) -> f64 {
        self.factor[l as usize]
    }

    /// Test hook: every live slot's cached projection equals the
    /// from-scratch expressions, bit for bit.
    #[doc(hidden)]
    pub fn projections_are_exact(&self) -> bool {
        self.active.iter().all(|&slot| {
            let (have, want) = (
                self.proj[slot as usize],
                self.slots[slot as usize].projection(),
            );
            (have.finish.to_bits(), have.slack.to_bits())
                == (want.finish.to_bits(), want.slack.to_bits())
        })
    }

    /// Age-ramped weight of the background flows whose standing queue
    /// physically forms *at* link `l`: the flows for which `l` is the
    /// first saturated link along their path, each phased in from `floor`
    /// to 1 linearly over `ramp` seconds of flow age. Traffic queues where
    /// it first meets a full link; every link downstream of that
    /// bottleneck receives already-shaped arrivals and holds no extra
    /// queue, so a hybrid driver must size a link's shadow queue from
    /// these flows only — summing over every contended link would count
    /// one queue several times along a shared path.
    pub fn ramped_queue_weight_on(&self, l: u32, now: f64, ramp: f64, floor: f64) -> f64 {
        self.queue_weights_on(l, now, ramp, floor)
            .map_or(0.0, |w| w.sum())
    }

    /// Whether [`Self::ramped_queue_weight_on`] with a zero floor is
    /// positive: some flow whose first saturated link is `l` is older than
    /// `now`. Stops at the first such flow. A flow admitted at `now`
    /// weighs 0 and does not count.
    pub fn queue_forms_on(&self, l: u32, now: f64, ramp: f64) -> bool {
        self.queue_weights_on(l, now, ramp, 0.0)
            .is_some_and(|mut w| w.any(|x| x > 0.0))
    }

    /// Each flow's term of [`Self::ramped_queue_weight_on`] (0 for a flow
    /// whose queue forms elsewhere), or `None` when `l` is idle or not
    /// saturated.
    fn queue_weights_on(
        &self,
        l: u32,
        now: f64,
        ramp: f64,
        floor: f64,
    ) -> Option<impl Iterator<Item = f64> + '_> {
        if !self.filler.is_active(l) || !self.saturated(l) {
            return None;
        }
        Some(self.filler.link_flows(l).map(move |slot| {
            let first = self
                .filler
                .path(slot)
                .iter()
                .copied()
                .find(|&k| self.saturated(k));
            if first != Some(l) {
                return 0.0;
            }
            let age = (now - self.slots[slot as usize].t_start).max(0.0);
            age_ramp(age, ramp, floor)
        }))
    }

    /// Age-weighted flow count on link `l` — the background's effective
    /// head count when splitting a shared link's fair entitlement with the
    /// foreground. A packet transport ramps through slow-start and
    /// standing-queue delay before reaching its converged share, while the
    /// steady-state fluid model jumps there instantly; so each flow's
    /// claim phases in from `floor` to 1 linearly over `ramp` seconds of
    /// flow age.
    pub fn ramped_weight_on(&self, l: u32, now: f64, ramp: f64, floor: f64) -> f64 {
        if !self.filler.is_active(l) {
            return 0.0;
        }
        self.filler
            .link_flows(l)
            .map(|slot| {
                let age = (now - self.slots[slot as usize].t_start).max(0.0);
                age_ramp(age, ramp, floor)
            })
            .sum()
    }

    /// Whether link `l`'s residual is within 1 % of its effective capacity:
    /// the saturation test behind queue build-up and queue placement.
    #[inline]
    fn saturated(&self, l: u32) -> bool {
        self.filler.link_residual(l) <= 0.01 * self.eff_capacity[l as usize]
    }

    /// Finish the run: package the flows, their finish times, the recorder
    /// and solver statistics. Flows still draining stay unfinished in the
    /// records (the hybrid driver stops at a scenario horizon, like the
    /// DES).
    pub fn into_result(self) -> FluidResult {
        let (full_solves, incremental_solves) = self.filler.solve_stats();
        let finished = self.finish.iter().filter(|&&f| f != UNFINISHED);
        let horizon = finished.max().copied().unwrap_or(SimTime::ZERO);
        let specs = self.specs;
        let by_id = (!specs.is_sorted_by_key(|s| s.id)).then(|| {
            let mut order: Vec<u32> = (0..specs.len() as u32).collect();
            order.sort_by_key(|&ix| specs[ix as usize].id);
            order
        });
        FluidResult {
            specs,
            finish: self.finish,
            by_id,
            rec: self.rec,
            resolve_set_size: self.resolve_set_size.unwrap_or_default(),
            rerouted_flows: self.rerouted.len() as u64,
            peak_active: self.peak_active,
            horizon,
            full_solves,
            incremental_solves,
            rate_updates: self.rate_updates,
        }
    }

    /// Admit every not-yet-started flow with `start ≤ now`.
    fn admit_due(&mut self) {
        while let Some(s) = self.specs.get(self.next_arrival) {
            let start = s.start.as_secs_f64();
            if start > self.t + 1e-15 {
                break;
            }
            // One walk of the route serves the link ids and the FCT floor.
            self.topo
                .trace_path_into(s.src, s.dst, s.id, &mut self.hop_buf);
            self.links.ids_into(&self.hop_buf, &mut self.path_buf);
            let wire_bits = self.framing.wire_bytes(s.size) as f64 * 8.0;
            // Pipeline floor: ideal FCT minus pure streaming time at the
            // path bottleneck (what the fluid drain models).
            let ideal = self
                .topo
                .ideal_fct_on(
                    &self.hop_buf,
                    s.size,
                    self.framing.mtu_payload,
                    self.framing.header,
                )
                .as_secs_f64();
            let bottleneck = self
                .path_buf
                .iter()
                .map(|&l| self.links.capacity(l))
                .fold(f64::INFINITY, f64::min);
            let st = SlotState {
                spec_ix: self.next_arrival as u32,
                remaining_bits: wire_bits,
                wire_bits,
                floor: (ideal - wire_bits / bottleneck).max(0.0),
                fair_line: bottleneck * self.eta,
                t_start: start,
                last_sync: self.t,
                rate: 0.0,
                max_cont: 0.0,
            };
            if self.rec.trace.enabled() {
                self.rec.trace.record(TraceEvent::FluidFlowAdd {
                    t_ps: to_ps(self.t),
                    flow: s.id.0,
                });
            }
            self.next_arrival += 1;
            // Under an active link failure the pristine path may be dead:
            // reroute over the surviving ECMP members or park the flow
            // until a link-up reconnects its destination. n_dead == 0
            // keeps fault-free runs on the exact pre-fault code path.
            let route = if self.n_dead == 0 {
                &self.path_buf
            } else if live_path(
                &self.topo,
                &self.routes,
                &self.links,
                s,
                &mut self.route_buf,
            ) {
                if self.route_buf != self.path_buf {
                    self.rerouted.insert(s.id);
                }
                &self.route_buf
            } else {
                self.stalled.push(st);
                continue;
            };
            let slot = self.filler.add_flow(route);
            self.active.push(slot);
            self.place(slot, st);
            self.needs_resolve = true;
        }
    }

    /// Warm-started re-solve for the changed active set; only flows whose
    /// rate moved get their drain state materialized. Also updates
    /// saturation tracking.
    fn resolve(&mut self) -> Result<(), FluidError> {
        self.needs_resolve = false;
        if self.rec.trace.enabled() {
            self.rec.trace.record(TraceEvent::SolveBegin {
                t_ps: to_ps(self.t),
                active: self.active.len() as u32,
            });
        }
        let span = self.rec.profiler.begin();
        let outcome = self.filler.rebalance();
        self.rec.profiler.end(self.ph_solve, span);
        if outcome != Rebalance::Noop {
            let changed = self.filler.changed().len() as u64;
            self.rate_updates += changed;
            if let Some(sizes) = &mut self.resolve_set_size {
                sizes.record(changed);
            }
        }
        if self.rec.trace.enabled() {
            self.rec.trace.record(TraceEvent::SolveEnd {
                t_ps: to_ps(self.t),
                full: outcome == Rebalance::Full,
                changed: self.filler.changed().len() as u32,
            });
        }
        for &slot in self.filler.changed() {
            let st = &mut self.slots[slot as usize];
            st.sync_to(self.t);
            st.rate = self.filler.rate(slot);
            self.proj[slot as usize] = st.projection();
            if st.rate <= 0.0 {
                let spec = &self.specs[st.spec_ix as usize];
                let choke = self
                    .filler
                    .path(slot)
                    .iter()
                    .map(|&l| (l, self.eff_capacity[l as usize]))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN link capacity"));
                return Err(FluidError {
                    flow: Some(spec.id),
                    message: format!(
                        "flow {:?} ({:?} → {:?}) was allocated a zero rate and can \
                         never finish; narrowest path link {:?} (zero-capacity link \
                         in the scenario, or a foreground reservation starved its \
                         path?)",
                        spec.id, spec.src, spec.dst, choke
                    ),
                });
            }
        }
        // Track how long each link has been continuously saturated — the
        // proxy for whether a standing queue had time to build. Links
        // (re)entering service start with no queue history; beyond that,
        // only touched links can change saturation state.
        for &l in self.filler.activated_links() {
            self.sat_since[l as usize] = f64::NAN;
        }
        for &l in self.filler.touched_links() {
            let li = l as usize;
            if !self.saturated(l) {
                self.sat_since[li] = f64::NAN;
            } else if self.sat_since[li].is_nan() {
                self.sat_since[li] = self.t;
            }
        }
        Ok(())
    }

    /// Retire every active flow projected to finish at or before `now`
    /// (tolerance: half a bit — below any meaningful transfer granularity)
    /// and compose its FCT: drain, pipeline floor, standing-queue term.
    fn retire_due(&mut self) {
        let t = self.t;
        let mut i = self.active.len();
        while i > 0 {
            i -= 1;
            let slot = self.active[i];
            let due = self.proj[slot as usize];
            if due.finish > t + due.slack {
                continue;
            }
            let st = &self.slots[slot as usize];
            let spec = &self.specs[st.spec_ix as usize];
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
            // Contended-sustained-drain utilization decay (the duration→η
            // hook, Timely only): a drain that shared its bottleneck with
            // a *persistent* competitor set for many RTTs really sustained
            // `effective_eta` of it, not the short-horizon η the shares
            // were computed with. Keyed on the longest contended
            // constant-rate stretch — every re-allocation (workload churn)
            // resets the oscillation and earns no decay. Stretch the
            // recorded drain at retire time — a per-flow FCT correction,
            // like the queue-delay term, so other flows' shares and the
            // event clock are untouched.
            let mut sustained = st.max_cont;
            if st.rate > 0.0 && st.rate < st.fair_line * CONTENDED_FRAC {
                sustained = sustained.max(t - st.last_sync);
            }
            // Gate on the episode covering (nearly) the whole drain: only
            // flows contended from birth to death — synchronized
            // incast-style drains — ring; a flow that spent part of its
            // life uncontended keeps re-anchoring to the short-horizon
            // utilization (ramp from 80% coverage).
            let birth = if drain > 0.0 {
                ((sustained / drain - 0.8) / 0.2).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let eta_hook = self
                .model
                .effective_eta(sustained, self.base_rtt, contention);
            let eta_eff = self.eta + (eta_hook - self.eta) * birth;
            if eta_eff < self.eta {
                drain *= self.eta / eta_eff;
            }
            // Queue build-up: the deepest standing queue on the path, as
            // the fraction of QUEUE_BUILD_RTTS the bottleneck has been
            // continuously saturated. Transient sharing (mice colliding
            // for microseconds) builds no queue; an elephant holding a
            // link saturated for many RTTs builds the scheme's full
            // standing queue.
            let mut sat_dur = 0.0f64;
            for &l in self.filler.path(slot) {
                let since = self.sat_since[l as usize];
                if !since.is_nan() {
                    sat_dur = sat_dur.max(t - since);
                }
            }
            let buildup = if self.base_rtt > 0.0 {
                (sat_dur / (QUEUE_BUILD_RTTS * self.base_rtt)).min(1.0)
            } else {
                0.0
            };
            let fct_secs = drain + st.floor + self.queue_delay * contention * buildup;
            let fct = TimeDelta::from_secs_f64(fct_secs.max(f64::MIN_POSITIVE));
            self.finish[st.spec_ix as usize] = spec.start + fct;
            if self.rec.trace.enabled() {
                self.rec.trace.record(TraceEvent::FluidFlowRemove {
                    t_ps: to_ps(t),
                    flow: spec.id.0,
                });
            }
            self.filler.remove_flow(slot);
            self.active.swap_remove(i);
            self.needs_resolve = true;
        }
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

    /// Flow `id`'s record.
    fn record(r: &FluidResult, id: u32) -> FlowRecord {
        r.records()
            .find(|rec| rec.flow == FlowId(id))
            .expect("flow in the run")
    }

    /// Whether every flow of the run finished.
    fn all_finished(r: &FluidResult) -> bool {
        r.records().all(|rec| rec.finish.is_some())
    }

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
        assert!(all_finished(&r));
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
        for rec in r.records() {
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
        let rec0 = record(&r, 0);
        let rec1 = record(&r, 1);
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
        assert!(r.reallocations() >= 3);
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
        assert_eq!(r.reallocations(), 0);
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
        assert!(all_finished(&r));
        // Equal shares of the receiver link: everyone completes together,
        // in two allocation rounds (start + batch completion).
        let n = r.reallocations();
        assert!(n <= 3, "reallocations {n}");
        let fcts: Vec<f64> = r
            .records()
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
        assert!(all_finished(&r));
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

    /// The dumbbell bottleneck / fat-tree ToR uplink (switch 0, port 2)
    /// down over `[down_us, up_us)`; `up_us == 0` leaves it down.
    fn flap(down_us: u64, up_us: u64) -> Vec<FaultSpec> {
        let (switch, port) = (0, 2);
        let mut faults = vec![FaultSpec::LinkDown {
            switch,
            port,
            at_us: down_us,
        }];
        if up_us > 0 {
            faults.push(FaultSpec::LinkUp {
                switch,
                port,
                at_us: up_us,
            });
        }
        faults
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
            .faults(&flap(100, 400))
            .run()
            .unwrap();
        assert!(all_finished(&r));
        assert!(r.rerouted_flows >= 1, "rerouted {}", r.rerouted_flows);
    }

    /// Each switch-to-switch link of a k=4 fat-tree dies in turn under
    /// all-pairs flows in flight. Every flow the fluid keeps draining
    /// follows, hop by hop, the packet switches' own forwarding once both
    /// endpoints took the `link_down` the fabric delivers; the rest are
    /// parked as severed.
    #[test]
    fn fluid_failover_matches_packet_switches() {
        use fncc_net::config::FabricConfig;
        use fncc_net::pool::PacketPool;
        use fncc_net::switch::{egress_for, Switch, SwitchOutput};
        use fncc_net::telemetry::Telemetry;
        let topo = Topology::fat_tree(4, BW, PROP);
        let cfg = FabricConfig::paper_default();
        let n = topo.n_hosts;
        let pairs = (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)));
        let flows: Vec<FlowSpec> = pairs
            .enumerate()
            .map(|(i, (s, d))| flow(i as u32, s, d, 10_000_000, 0))
            .collect();
        let at = SimTime::from_us(10);
        let (mut links_failed, mut rerouted) = (0, 0);
        for (sw, spec) in topo.switches.iter().enumerate() {
            for (port, near) in spec.ports.iter().enumerate() {
                let NodeRef::Switch(peer) = near.peer else {
                    continue;
                };
                if peer.ix() < sw {
                    continue; // each physical link once
                }
                let fault = FaultSpec::LinkDown {
                    switch: sw as u32,
                    port: port as u8,
                    at_us: 10,
                };
                let mut bg = BackgroundFluid::new(
                    topo.clone(),
                    RateModel::ideal(),
                    Framing::default(),
                    flows.clone(),
                    false,
                )
                .unwrap();
                bg.faults(&[fault]);
                bg.advance_to(at.as_secs_f64() + 1e-6).unwrap();

                let mut switches: Vec<Switch> = (0..topo.n_switches())
                    .map(|s| Switch::new(SwitchId(s as u32), &topo.switches[s], &cfg))
                    .collect();
                let (mut telem, mut pool) = (Telemetry::new(), PacketPool::new());
                let mut out: Vec<SwitchOutput> = Vec::new();
                for (s, p) in [(sw, port as u8), (peer.ix(), near.peer_port)] {
                    switches[s].link_down(at, p, &cfg, &mut telem, &mut pool, &mut out);
                }

                for &slot in &bg.active {
                    let f = &bg.specs[bg.slots[slot as usize].spec_ix as usize];
                    let mut want = vec![bg.links.id_of(NodeRef::Host(f.src), 0)];
                    let mut cur = topo.host_ports[f.src.ix()].peer;
                    while let NodeRef::Switch(s) = cur {
                        let p = egress_for(&switches[s.ix()], f.src, f.dst, f.id);
                        want.push(bg.links.id_of(cur, p));
                        cur = topo.switches[s.ix()].ports[p as usize].peer;
                    }
                    assert!(cur == NodeRef::Host(f.dst));
                    assert_eq!(
                        bg.filler.path(slot),
                        want.as_slice(),
                        "link {sw}:{port} down, flow {:?}",
                        f.id
                    );
                }
                assert_eq!(bg.active.len() + bg.stalled.len(), flows.len());
                links_failed += 1;
                rerouted += bg.rerouted.len();
            }
        }
        assert_eq!(links_failed, 32, "k=4: 16 edge-agg + 16 agg-core links");
        assert!(rerouted > 0);
    }

    /// A degraded bottleneck lengthens the FCT of a flow crossing it, and
    /// the window's end returns the link to full speed.
    #[test]
    fn degrade_window_slows_completion() {
        let run = |faults: &[FaultSpec]| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            let r = FluidSim::new(topo, RateModel::ideal())
                .flows([flow(0, 0, 2, 10_000_000, 0)])
                .faults(faults)
                .run()
                .unwrap();
            let rec = record(&r, 0);
            rec.fct().unwrap().as_secs_f64()
        };
        let clean = run(&[]);
        let degraded = run(&[FaultSpec::LinkDegrade {
            switch: 0,
            port: 2,
            from_us: 100,
            to_us: 400,
            rate_factor: 0.25,
            delay_factor: 1.0,
        }]);
        // 300 µs at quarter speed costs ~225 µs of extra drain.
        assert!(
            degraded > clean + 150e-6,
            "degraded {degraded} vs clean {clean}"
        );
    }

    /// Regression: a closed window restores the nominal capacity exactly.
    /// The factor used to be multiplied by `f` and later by `1.0 / f`, and
    /// `0.95 * (1.0 / 0.95)` is one ulp under 1, so the link ran short for
    /// the rest of the run. Now the presented capacity is bit-equal to the
    /// base once the window closed, and a flow starting afterwards finishes
    /// exactly when the fault-free run finishes it.
    #[test]
    fn closed_fault_window_restores_exact_capacity() {
        let engine = |faults: &[FaultSpec]| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            let late = vec![flow(0, 0, 2, 10_000_000, 500)];
            let mut bg =
                BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), late, false)
                    .unwrap();
            bg.faults(faults);
            bg
        };
        let finish = |mut bg: BackgroundFluid| {
            bg.run_to_end().unwrap();
            let r = bg.into_result();
            record(&r, 0).finish.unwrap()
        };
        let clean = finish(engine(&[]));
        let (switch, port, from_us, to_us) = (0, 2, 100, 400);
        for fault in [
            FaultSpec::LinkDegrade {
                switch,
                port,
                from_us,
                to_us,
                rate_factor: 0.95,
                delay_factor: 1.0,
            },
            FaultSpec::RandomLoss {
                switch,
                port,
                from_us,
                to_us,
                probability: 0.005,
            },
        ] {
            let mut bg = engine(&[fault]);
            let l = bg.links.id_of(NodeRef::Switch(SwitchId(switch)), port) as usize;
            bg.advance_to(250e-6).unwrap();
            assert!(
                bg.eff_capacity[l] < bg.capacity_base[l],
                "{fault:?} never opened"
            );
            bg.advance_to(450e-6).unwrap();
            assert_eq!(
                bg.eff_capacity[l].to_bits(),
                bg.capacity_base[l].to_bits(),
                "{fault:?}"
            );
            assert_eq!(finish(bg), clean, "{fault:?}");
        }
    }

    /// On a dumbbell the bottleneck has no ECMP alternative: a link-down
    /// strands the flow (remaining bits frozen) until the link-up revives
    /// it, and the outage shows up in the FCT.
    #[test]
    fn severed_flow_stalls_until_link_up() {
        let run = |faults: &[FaultSpec]| {
            let topo = Topology::dumbbell(2, 3, BW, PROP);
            FluidSim::new(topo, RateModel::ideal())
                .flows([flow(0, 0, 2, 10_000_000, 0)])
                .faults(faults)
                .run()
                .unwrap()
        };
        let clean = run(&[]);
        let fct_clean = record(&clean, 0).fct().unwrap().as_secs_f64();
        let flapped = run(&flap(100, 500));
        assert!(all_finished(&flapped));
        let fct = record(&flapped, 0).fct().unwrap().as_secs_f64();
        // The 400 µs outage is dead time: FCT grows by roughly that much.
        assert!(
            (fct - fct_clean - 400e-6).abs() < 50e-6,
            "fct {fct} vs clean {fct_clean}"
        );
        // A stall is not a reroute — the flow resumed on its only path.
        assert_eq!(flapped.rerouted_flows, 0);
    }

    /// A permanent sever leaves the flow unfinished rather than hanging the
    /// event loop or inventing a completion.
    #[test]
    fn permanent_sever_leaves_flow_unfinished() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 2, 10_000_000, 0)])
            .faults(&flap(100, 0))
            .run()
            .unwrap();
        assert!(!all_finished(&r));
        assert!(record(&r, 0).fct().is_none());
    }

    /// `records()` builds one record per flow from the specs and finish
    /// times, a flow stalled behind a severed link reports no
    /// finish, and the horizon is the latest finish of the finished flows.
    #[test]
    fn result_builds_records_from_specs_and_finish_times() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([
                flow(0, 0, 2, 10_000_000, 0),
                flow(1, 1, 2, 10_000, 0),
                flow(2, 0, 2, 20_000, 20),
            ])
            .faults(&flap(100, 0))
            .run()
            .unwrap();
        let ids: Vec<u32> = r.records().map(|rec| rec.flow.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(record(&r, 0).finish, None, "severed for good at 100 µs");
        let unfinished = r.records().filter(|rec| rec.finish.is_none()).count();
        assert_eq!(unfinished, 1);
        let latest = r.records().filter_map(|rec| rec.finish).max();
        assert_eq!(Some(r.horizon), latest, "the stalled flow sets no horizon");
    }

    /// An arrival during an outage that severs its destination parks until
    /// the link returns, then drains normally.
    #[test]
    fn arrival_during_outage_waits_for_link_up() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 2, 1_000_000, 200)])
            .faults(&flap(100, 600))
            .run()
            .unwrap();
        assert!(all_finished(&r));
        let fct = record(&r, 0).fct().unwrap().as_secs_f64();
        // Born at 200 µs into a dead network, revived at 600 µs: the FCT
        // carries at least the 400 µs wait.
        assert!(fct > 400e-6, "fct {fct}");
    }

    /// Flows a link-up revives count toward `peak_active` at the instant
    /// they rejoin, though no flow arrives then: two arrivals park behind
    /// the outage and both drain together after it.
    #[test]
    fn revived_flows_count_toward_peak_active() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let r = FluidSim::new(topo, RateModel::ideal())
            .flows([flow(0, 0, 2, 1_000_000, 200), flow(1, 1, 2, 1_000_000, 300)])
            .faults(&flap(100, 600))
            .run()
            .unwrap();
        assert!(all_finished(&r));
        assert_eq!(r.peak_active, 2);
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
            let rec = record(&r, 1);
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

    /// Deferred resolves: an idle gap costs one rebalance — at the arrival
    /// that ends it, folding the earlier retirement in — and a run settles
    /// nothing after its last retirement. `advance_to` does settle on
    /// exit, because its caller reads link loads.
    #[test]
    fn idle_gap_costs_one_rebalance() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        // Flow 0 drains in ~80 µs; flow 1 arrives long after it left.
        let flows = vec![flow(0, 0, 2, 1_000_000, 0), flow(1, 1, 2, 1_000_000, 500)];
        let r = FluidSim::new(topo.clone(), RateModel::ideal())
            .flows(flows.clone())
            .run()
            .unwrap();
        assert!(all_finished(&r));
        assert_eq!(
            r.reallocations(),
            2,
            "one solve per arrival, none per gap edge"
        );

        let mut bg =
            BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), flows, false)
                .unwrap();
        bg.advance_to(1.0).unwrap();
        assert_eq!(bg.remaining_flows(), 0);
        assert_eq!(bg.into_result().reallocations(), 3, "plus the exit settle");
    }

    /// next_event reports arrivals and completions; advance_to never
    /// crosses the target.
    #[test]
    fn next_event_brackets_advance() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let flows = vec![flow(0, 0, 1, 500_000, 5), flow(1, 1, 0, 500_000, 50)];
        let mut bg =
            BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), flows, false)
                .unwrap();
        let first = bg.next_event().unwrap();
        assert!((first - 5e-6).abs() < 1e-12, "first event is the arrival");
        bg.advance_to(4e-6).unwrap();
        assert_eq!(bg.remaining_flows(), 2);
        assert!((bg.now() - 4e-6).abs() < 1e-15);
        while let Some(ev) = bg.next_event() {
            bg.advance_to(ev).unwrap();
        }
        assert_eq!(bg.remaining_flows(), 0);
    }

    /// A reservation shrinks the background share (longer drain) through
    /// one re-solve of the dirtied link; releasing it restores the full
    /// rate.
    #[test]
    fn reservation_slows_background_and_release_restores_it() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        // One elephant across the dumbbell, draining alone.
        let flows = vec![flow(0, 0, 1, 12_500_000, 0)]; // 100 Mbit
        let mut bg =
            BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), flows, false)
                .unwrap();
        bg.advance_to(100e-6).unwrap();
        let uplink = 0u32; // host 0's uplink
        let unreserved = bg.background_load(uplink);
        assert!(unreserved > 0.9 * BW.as_f64(), "elephant fills the link");

        // Foreground claims 60% of the uplink's raw bandwidth.
        let solves = |bg: &BackgroundFluid| {
            let (full, incremental) = bg.filler.solve_stats();
            full + incremental
        };
        let before = solves(&bg);
        bg.reserve(uplink, 0.6 * BW.as_f64());
        bg.advance_to(150e-6).unwrap();
        let reserved = bg.background_load(uplink);
        assert!(
            reserved < 0.45 * BW.as_f64(),
            "background squeezed to the residual, got {reserved:.3e}"
        );
        assert_eq!(solves(&bg), before + 1, "the reservation re-solved once");

        // Release: the elephant speeds back up and eventually finishes.
        bg.reserve(uplink, 0.0);
        while let Some(ev) = bg.next_event() {
            bg.advance_to(ev).unwrap();
        }
        assert_eq!(bg.remaining_flows(), 0);
        let res = bg.into_result();
        let rec = res.records().next().unwrap();
        assert!(rec.finish.is_some());
    }

    /// `queue_forms_on` is the sign of `ramped_queue_weight_on` with a zero
    /// floor, on every link of random fluid states: arrivals on a coarse
    /// grid (so the clock often sits on a flow's admission instant, where
    /// that flow weighs 0), random reservations, and `now` both at the
    /// clock and just past it.
    #[test]
    fn queue_forms_on_is_the_sign_of_the_queue_weight() {
        let mut seed = 0x0BAC_6120_05EE_D001u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let ramp = 20e-6;
        let (mut forming, mut newborn_only) = (0u32, 0u32);
        for _ in 0..24 {
            let topo = Topology::fat_tree(4, BW, PROP);
            let hosts = topo.n_hosts as u64;
            let flows: Vec<FlowSpec> = (0..10 + next() % 40)
                .map(|id| {
                    let src = next() % hosts;
                    let dst = (src + 1 + next() % (hosts - 1)) % hosts;
                    let size = 10_000 + next() % 3_000_000;
                    flow(id as u32, src as u32, dst as u32, size, 5 * (next() % 20))
                })
                .collect();
            let mut bg =
                BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), flows, false)
                    .unwrap();
            let n_links = bg.link_map().len() as u64;
            for step in 0..24u64 {
                for _ in 0..next() % 3 {
                    let l = (next() % n_links) as u32;
                    bg.reserve(l, (next() % 4) as f64 * 0.25 * BW.as_f64());
                }
                bg.advance_to(step as f64 * 5e-6).unwrap();
                for now in [bg.now(), bg.now() + 1e-9] {
                    for l in 0..n_links as u32 {
                        let weight = bg.ramped_queue_weight_on(l, now, ramp, 0.0);
                        assert_eq!(bg.queue_forms_on(l, now, ramp), weight > 0.0, "link {l}");
                        if bg.ramped_queue_weight_on(l, now, ramp, 1.0) > 0.0 {
                            forming += 1;
                            newborn_only += (weight == 0.0) as u32;
                        }
                    }
                }
            }
        }
        assert!(
            forming > 5000,
            "queue-forming links barely exercised: {forming}"
        );
        assert!(newborn_only > 100, "newborn-only links: {newborn_only}");
    }

    /// Reserving the entire link floors the background at a sliver
    /// instead of erroring out with a zero rate.
    #[test]
    fn full_reservation_floors_not_starves() {
        let topo = Topology::dumbbell(2, 3, BW, PROP);
        let flows = vec![flow(0, 0, 1, 1_000_000, 0)];
        let mut bg =
            BackgroundFluid::new(topo, RateModel::ideal(), Framing::default(), flows, false)
                .unwrap();
        bg.advance_to(1e-6).unwrap();
        bg.reserve(0, 2.0 * BW.as_f64()); // over-reserve
        bg.advance_to(2e-6).unwrap();
        let load = bg.background_load(0);
        assert!(load > 0.0, "background keeps a sliver");
        assert!(load <= RESERVE_FLOOR * BW.as_f64() * 1.01);
    }
}
