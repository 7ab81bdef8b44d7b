//! The fluid↔packet co-simulation engine behind the hybrid backend.
//!
//! A hybrid run partitions a scenario's flows into two halves that share
//! one network:
//!
//! * **Background** flows (the fleet-scale bulk: elephants, steady
//!   transfers) drain in a [`BackgroundFluid`] — incremental max-min
//!   water-filling under a calibrated [`RateModel`], costing one solver
//!   delta per arrival/finish instead of millions of packet events.
//! * **Foreground** flows (incast victims, latency-sensitive mice,
//!   anything being measured at packet fidelity) run in a [`Sim`] built by
//!   the same [`SimBuilder`] as the pure packet backend's: the same
//!   [`DcHost`] transport, CC schemes and overrides, PFC, and switch model.
//!
//! The two halves are coupled bidirectionally at *synchronization
//! boundaries* — fluid event times (arrival/finish) capped by a maximum
//! sync interval:
//!
//! * fluid → packet: the background's standing queue on each contended
//!   link — its ramped share of the scheme's calibrated `queue_rtts`,
//!   attributed to the first saturated link of each flow's path — is
//!   pushed onto the DES port as a **shadow backlog**
//!   ([`fncc_net::fabric::Fabric::set_port_backlog`]). Foreground
//!   congestion control then senses the fluid half through its native
//!   signals (INT `qLen`, ECN marks, RoCC rate advertisements, inflated
//!   RTT) and frames queue behind it in FIFO order, exactly as behind a
//!   packet competitor;
//! * packet → fluid: measured foreground throughput per link (from port
//!   byte counters, with hysteresis) is fed back as a **demand
//!   reservation** ([`BackgroundFluid::reserve`]), shrinking the
//!   capacity the water-filler shares out at its next re-solve.
//!
//! Newborn flows on both halves phase their fair-share entitlement in
//! over `RAMP_RTTS` base-RTTs: a flow that just started holds its
//! initial window, not its converged max-min share, and the coupling
//! must not hand it one. The same ramp (from a floor of zero) governs
//! how fast a newborn's standing-queue contribution builds.
//!
//! The result is packet-level fidelity where it matters at a cost that
//! scales with foreground traffic plus background *events*, not
//! background *packets*.

use crate::sim::{Sim, SimBuilder};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::sim::age_ramp;
use fncc_fluid::{BackgroundFluid, FluidError, FluidResult, Framing, RateModel};
use fncc_net::fabric::Fabric;
use fncc_net::ids::NodeRef;
use fncc_net::telemetry::{FlowRecord, Telemetry};
use fncc_obs::TraceEvent;
use fncc_transport::{DcHost, FlowSpec};

/// Maximum interval between fluid↔packet synchronizations. Fluid
/// events (arrivals/finishes) always force a boundary; this cap
/// bounds how stale a reservation or residual can get between them.
const MAX_SYNC: TimeDelta = TimeDelta::from_us(100);

/// Relative hysteresis on foreground-throughput reservations: a
/// link's reservation is only re-pushed when the measured load moved
/// by more than this fraction of the link's raw bandwidth (and its
/// shadow backlog when it moved by this fraction of the full depth).
/// Damps solver churn from packet-scale rate jitter.
const HYSTERESIS: f64 = 0.02;

/// Fair-share ramp length in base-RTTs. A packet flow does not claim
/// its converged max-min share at birth — it climbs through window
/// growth and an already-built standing queue. Both halves' flows
/// therefore phase their *entitlement weight* in linearly over this
/// many RTTs when the coupling splits a shared link.
const RAMP_RTTS: f64 = 4.0;

/// Entitlement weight a flow holds at birth (fraction of its mature
/// weight); the linear ramp runs from this floor up to 1.
const RAMP_FLOOR: f64 = 0.25;

/// Outcome of a completed hybrid run: the packet half's telemetry, the
/// fluid half's result, and the coupling statistics.
pub struct HybridResult {
    /// Foreground (packet DES) telemetry: flow records, counters and the
    /// run's one recorder — the foreground's trace ring, and the profiler
    /// spans of both halves.
    pub fg: Telemetry,
    /// Background (fluid) result: flow records and solver statistics. Its
    /// resolve-set histogram stays out of the report, and its profiler is
    /// folded into `fg`'s.
    pub bg: FluidResult,
    /// Fluid↔packet synchronization boundaries taken.
    pub syncs: u64,
    /// Foreground-demand reservations pushed into the water-filler.
    pub reservations: u64,
    /// Shadow-queue backlog pushes onto DES ports.
    pub backlog_pushes: u64,
    /// Packet events dispatched by the foreground DES.
    pub fg_events: u64,
    /// Peak concurrently-active background flows.
    pub peak_bg_active: usize,
}

/// One foreground link's coupling state, indexed alongside `fg_links`.
#[derive(Debug, Clone, Copy)]
struct FgLink {
    /// Dense directed-link id (shared with the fluid [`BackgroundFluid`]).
    link: u32,
    /// The DES port this link drains through.
    node: NodeRef,
    port: u8,
    /// Raw (unscaled) link bandwidth, bits/s.
    raw_bps: f64,
    /// Port byte counter at the last sync.
    last_tx: u64,
    /// Last reservation pushed into the fluid half, bits/s.
    last_reserved: f64,
    /// Last shadow-queue backlog pushed onto the DES port, bytes.
    last_backlog: u64,
    /// Foreground flows currently alive across this link.
    n_fg: u32,
    /// A foreground flow was admitted on this link at the current
    /// boundary (no throughput measurement exists for it yet).
    fresh: bool,
}

/// The co-simulation engine: a packet DES carrying the foreground flows
/// and a stepping fluid model carrying the background, advanced in
/// lockstep with bidirectional capacity exchange.
pub struct HybridSim {
    /// The packet half, as [`SimBuilder::build`] made it.
    fg: Sim,
    bg: BackgroundFluid,
    /// Coupling state for every link a foreground flow traverses.
    fg_links: Vec<FgLink>,
    /// Foreground flow specs (for lifecycle tracking at boundaries).
    fg_specs: Vec<FlowSpec>,
    /// Per-spec list of `fg_links` indices on that flow's data path.
    fg_flow_links: Vec<Vec<u32>>,
    /// Scratch: per-`fg_links` age-ramped foreground entitlement weight,
    /// rebuilt at every boundary.
    fg_w: Vec<f64>,
    /// Entitlement ramp length in seconds (`RAMP_RTTS · base_rtt`).
    ramp: f64,
    /// The background's full-contention standing-queue delay in seconds
    /// (`queue_rtts · base_rtt`, from the calibrated rate model, scaled
    /// per scheme by [`RateModel::newcomer_queue_scale`]).
    queue_debt: f64,
    /// Spec indices sorted by start time; `next_fg_admit` walks it.
    fg_order: Vec<u32>,
    next_fg_admit: usize,
    /// Spec indices of foreground flows admitted but not yet finished.
    fg_active: Vec<u32>,
    last_sync: SimTime,
    syncs: u64,
    reservations: u64,
    backlog_pushes: u64,
}

impl HybridSim {
    /// Build a hybrid simulation: `foreground` is the packet half, built
    /// by [`SimBuilder::build`] with every flow, override, seed and probe
    /// it carries; `background` flows go to the fluid model under `model`,
    /// which must be calibrated for the builder's scheme. The builder's
    /// topology and faults apply to both halves — the background derives
    /// its capacity boundaries from the fault list the foreground fabric
    /// schedules. Its trace flag arms the foreground ring alone, where the
    /// hybrid coupling events land too; the background is never traced.
    /// Fails like the fluid backend on zero-capacity links.
    pub fn new(
        foreground: SimBuilder,
        background: Vec<FlowSpec>,
        model: RateModel,
    ) -> Result<Self, FluidError> {
        let kind = foreground.cc.kind();
        assert_eq!(model.kind, kind, "both halves run one scheme");
        let topo = &foreground.topo;
        let cfg = &foreground.fabric;
        let base_rtt = topo.base_rtt(cfg.mtu, cfg.ack_base);
        let queue_debt = model.queue_rtts * base_rtt.as_secs_f64() * model.newcomer_queue_scale;
        let mut bg =
            BackgroundFluid::new(topo.clone(), model, Framing::from(cfg), background, false)?;
        bg.faults(&cfg.faults);

        // The foreground link set: every directed link some foreground
        // flow's data path crosses. Only these links exchange
        // reservations and backlogs — background-only links never touch
        // the DES, and foreground-only links never dirty the solver.
        let fg_specs = foreground.flows.clone();
        let links = bg.link_map();
        let mut fg_index = vec![u32::MAX; links.len()];
        let mut fg_links = Vec::new();
        let mut fg_flow_links = Vec::with_capacity(fg_specs.len());
        let mut buf = Vec::new();
        for f in &fg_specs {
            links.path_links_into(topo, f.src, f.dst, f.id, &mut buf);
            let mut ixs = Vec::with_capacity(buf.len());
            for &l in &buf {
                if fg_index[l as usize] == u32::MAX {
                    fg_index[l as usize] = fg_links.len() as u32;
                    let (node, port) = links.node_of(l);
                    fg_links.push(FgLink {
                        link: l,
                        node,
                        port,
                        raw_bps: links.capacities()[l as usize],
                        last_tx: 0,
                        last_reserved: 0.0,
                        last_backlog: 0,
                        n_fg: 0,
                        fresh: false,
                    });
                }
                ixs.push(fg_index[l as usize]);
            }
            fg_flow_links.push(ixs);
        }
        let mut fg_order: Vec<u32> = (0..fg_specs.len() as u32).collect();
        fg_order.sort_by_key(|&i| fg_specs[i as usize].start);

        let fg = foreground.build();
        let fg_w = vec![0.0; fg_links.len()];
        let ramp = RAMP_RTTS * base_rtt.as_secs_f64();
        Ok(HybridSim {
            fg,
            bg,
            fg_links,
            fg_specs,
            fg_flow_links,
            fg_w,
            ramp,
            queue_debt,
            fg_order,
            next_fg_admit: 0,
            fg_active: Vec::new(),
            last_sync: SimTime::ZERO,
            syncs: 0,
            reservations: 0,
            backlog_pushes: 0,
        })
    }

    /// Current simulation time (both halves agree at sync boundaries).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.last_sync.max(self.fg.now())
    }

    /// Packet events dispatched so far by the foreground DES.
    #[inline]
    pub fn fg_events(&self) -> u64 {
        self.fg.events_processed()
    }

    /// Whether every foreground flow has finished (at once, with none).
    pub fn foreground_done(&self) -> bool {
        self.fg.telemetry().all_flows_finished()
    }

    /// The foreground fabric's telemetry (the foreground's flow records,
    /// registered at build, fill in here during the run).
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        self.fg.telemetry()
    }

    /// The live foreground fabric (ports, switches, pause counters).
    #[inline]
    pub fn fabric(&self) -> &Fabric<DcHost> {
        self.fg.fabric()
    }

    /// Co-advance both halves to `horizon`. Synchronization boundaries
    /// fall on every fluid event (background arrival or finish) and on
    /// every foreground flow start, capped at `MAX_SYNC`;
    /// the final boundary lands exactly on `horizon`. Errors out only if
    /// the fluid half starves (zero-rate background flow), leaving the
    /// clock at the last good boundary.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<(), FluidError> {
        if self.syncs == 0 {
            // Initial boundary: admit time-zero arrivals on both halves
            // and seed reservations/backlogs before any packet moves.
            self.sync_at(self.last_sync)?;
        }
        let mut cursor = self.last_sync;
        while cursor < horizon {
            let mut t_next = (cursor + MAX_SYNC).min(horizon);
            if let Some(fe) = self.bg.next_event() {
                let fe = SimTime::ZERO + TimeDelta::from_secs_f64(fe);
                if fe > cursor && fe < t_next {
                    t_next = fe;
                }
            }
            if let Some(&s) = self.fg_order.get(self.next_fg_admit) {
                let start = self.fg_specs[s as usize].start;
                if start > cursor && start < t_next {
                    t_next = start;
                }
            }
            if t_next <= cursor {
                // Degenerate rounding (a fluid event landed exactly on the
                // boundary): force minimal progress.
                t_next = (cursor + TimeDelta::from_ns(1)).min(horizon);
                if t_next <= cursor {
                    break;
                }
            }
            self.fg.run_until(t_next);
            self.sync_at(t_next)?;
            cursor = t_next;
        }
        Ok(())
    }

    /// Run in `chunk`-capped steps until every flow in *both* halves has
    /// finished or `cap` is reached; returns true if everything finished.
    pub fn run_to_completion(
        &mut self,
        chunk: TimeDelta,
        cap: SimTime,
    ) -> Result<bool, FluidError> {
        let mut t = self.last_sync;
        while !(self.foreground_done() && self.bg.remaining_flows() == 0) {
            if t >= cap {
                return Ok(false);
            }
            t = (t + chunk).min(cap);
            self.run_until(t)?;
        }
        Ok(true)
    }

    /// One synchronization boundary at time `t`:
    ///
    /// 1. advance the fluid half to `t` (background arrivals/finishes);
    /// 2. update foreground membership (admit starts ≤ `t`, retire
    ///    finished flows) and push per-link demand reservations — the
    ///    measured foreground throughput since the last boundary, capped
    ///    at the foreground's max-min entitlement
    ///    `raw · w_fg / (w_fg + w_bg)` where both weights are the
    ///    age-ramped flow counts (`RAMP_RTTS`): a flow's
    ///    claim phases in from `RAMP_FLOOR` to 1 over the ramp, so
    ///    newcomers on either side displace incumbents gradually — the
    ///    way window growth and standing queues make them in the packet
    ///    fabric — instead of snapping to the converged fair share
    ///    (freshly admitted foreground flows have no measurement yet and
    ///    reserve their full — ramped — entitlement), and the background's
    ///    shadow backlog onto the link's DES port;
    /// 3. re-solve under the new reservations.
    fn sync_at(&mut self, t: SimTime) -> Result<(), FluidError> {
        let t_ps = t.as_ps();
        self.bg.advance_to(t.as_secs_f64())?;
        let fabric = &mut self.fg.eng.model;

        // Foreground membership: admit starts ≤ t, retire finished flows.
        for fl in &mut self.fg_links {
            fl.fresh = false;
        }
        while let Some(&s) = self.fg_order.get(self.next_fg_admit) {
            if self.fg_specs[s as usize].start > t {
                break;
            }
            for &i in &self.fg_flow_links[s as usize] {
                self.fg_links[i as usize].n_fg += 1;
                self.fg_links[i as usize].fresh = true;
            }
            self.fg_active.push(s);
            self.next_fg_admit += 1;
        }
        let mut k = self.fg_active.len();
        while k > 0 {
            k -= 1;
            let s = self.fg_active[k] as usize;
            let done = fabric
                .telemetry
                .flow_record(self.fg_specs[s].id)
                .is_some_and(|r| r.finish.is_some());
            if done {
                for &i in &self.fg_flow_links[s] {
                    self.fg_links[i as usize].n_fg -= 1;
                }
                self.fg_active.swap_remove(k);
            }
        }

        // Age-ramped foreground entitlement weights for this boundary.
        let now_s = t.as_secs_f64();
        for w in &mut self.fg_w {
            *w = 0.0;
        }
        for &s in &self.fg_active {
            let age = (t - self.fg_specs[s as usize].start).as_secs_f64();
            let w = age_ramp(age, self.ramp, RAMP_FLOOR);
            for &i in &self.fg_flow_links[s as usize] {
                self.fg_w[i as usize] += w;
            }
        }

        let dt = (t - self.last_sync).as_secs_f64();
        let mut n_res = 0u32;
        let mut n_back = 0u32;
        for i in 0..self.fg_links.len() {
            let fl = self.fg_links[i];
            let w_fg = self.fg_w[i];
            // A link no foreground flow crosses reserves nothing, so it
            // reads neither its port counter nor the background's weight.
            // Its `last_tx` goes stale, which is harmless: the sync that
            // next admits a flow onto it is `fresh` and ignores the
            // measurement.
            let target = if fl.n_fg == 0 {
                0.0
            } else {
                let mut measured = fl.last_reserved;
                if dt > 0.0 {
                    let tx = match fl.node {
                        NodeRef::Host(h) => fabric.host_ports[h.ix()].tx_bytes,
                        NodeRef::Switch(s) => {
                            fabric.switches[s.ix()].ports[fl.port as usize].tx_bytes
                        }
                    };
                    measured = (tx - fl.last_tx) as f64 * 8.0 / dt;
                    self.fg_links[i].last_tx = tx;
                }
                if fl.fresh {
                    let w_bg = self
                        .bg
                        .ramped_weight_on(fl.link, now_s, self.ramp, RAMP_FLOOR);
                    if w_fg + w_bg > 0.0 {
                        fl.raw_bps * w_fg / (w_fg + w_bg)
                    } else {
                        fl.raw_bps
                    }
                } else {
                    // The foreground takes what its CC earns against the
                    // shadow queue; reserve exactly that so the fluid half
                    // yields the same bandwidth a packet background would.
                    measured
                }
            };
            // The background's shadow queue on this link: its ramped
            // share of the scheme's calibrated standing queue, surfaced
            // to the DES as a phantom backlog so foreground CC sees the
            // fluid half's congestion through its native signals. Sized
            // from the flows whose queue physically forms here (first
            // saturated link on their path), not every flow crossing.
            if self.queue_debt > 0.0 {
                // Queue weight ramps from zero, not from the entitlement
                // floor: a newborn flow claims bandwidth immediately (its
                // initial window is in flight) but its standing-queue
                // contribution starts empty and builds over the ramp.
                let bg_frac = if fl.n_fg == 0 {
                    // No foreground weight (every live flow weighs at
                    // least RAMP_FLOOR, so w_fg is 0 exactly when n_fg is):
                    // the background holds the whole queue or none of it,
                    // and only the sign of its weight matters.
                    const _: () = assert!(RAMP_FLOOR > 0.0);
                    if self.bg.queue_forms_on(fl.link, now_s, self.ramp) {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    let qw_bg = self
                        .bg
                        .ramped_queue_weight_on(fl.link, now_s, self.ramp, 0.0);
                    if qw_bg > 0.0 {
                        qw_bg / (qw_bg + w_fg)
                    } else {
                        0.0
                    }
                };
                let full = self.queue_debt * fl.raw_bps / 8.0;
                let backlog = (full * bg_frac) as u64;
                if (backlog as f64 - fl.last_backlog as f64).abs() > HYSTERESIS * full {
                    fabric.set_port_backlog(fl.node, fl.port, backlog);
                    self.fg_links[i].last_backlog = backlog;
                    n_back += 1;
                    let trace = &mut fabric.telemetry.rec.trace;
                    if trace.enabled() {
                        trace.record(TraceEvent::HybridBacklog {
                            t_ps,
                            link: fl.link,
                            backlog_bytes: backlog,
                        });
                    }
                }
            }
            if (target - fl.last_reserved).abs() > HYSTERESIS * fl.raw_bps {
                self.bg.reserve(fl.link, target);
                self.fg_links[i].last_reserved = target;
                n_res += 1;
                let trace = &mut fabric.telemetry.rec.trace;
                if trace.enabled() {
                    trace.record(TraceEvent::HybridReserve {
                        t_ps,
                        link: fl.link,
                        load_bps: target,
                    });
                }
            }
        }
        // Re-solve under the new reservations (no time passes).
        self.bg.advance_to(t.as_secs_f64())?;

        self.syncs += 1;
        self.reservations += n_res as u64;
        self.backlog_pushes += n_back as u64;
        if fabric.telemetry.rec.trace.enabled() {
            fabric.telemetry.rec.trace.record(TraceEvent::HybridSync {
                t_ps,
                reservations: n_res,
            });
        }
        self.last_sync = t;
        Ok(())
    }

    /// Finish the run: split out both halves' results and the coupling
    /// statistics, with the foreground engine's and the background's
    /// profilers folded into the foreground recorder.
    pub fn into_result(mut self) -> HybridResult {
        let fg_events = self.fg.events_processed();
        let peak_bg_active = self.bg.peak_active();
        let mut fg = std::mem::take(&mut self.fg.eng.model.telemetry);
        let bg = self.bg.into_result();
        fg.rec.profiler.absorb(self.fg.eng.profiler());
        fg.rec.profiler.absorb(&bg.rec.profiler);
        HybridResult {
            fg,
            bg,
            syncs: self.syncs,
            reservations: self.reservations,
            backlog_pushes: self.backlog_pushes,
            fg_events,
            peak_bg_active,
        }
    }
}

impl HybridResult {
    /// Both halves' flow records in ascending flow id: the foreground's
    /// record table and the background's records, merged by id. Each half
    /// walks its own flows in id order, so one merge pass gives the order
    /// a single table over every flow would.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        let mut fg = self.fg.flow_records().copied().peekable();
        let mut bg = self.bg.records().peekable();
        std::iter::from_fn(move || match (fg.peek(), bg.peek()) {
            (Some(f), Some(b)) if b.flow < f.flow => bg.next(),
            (Some(_), _) => fg.next(),
            (None, _) => bg.next(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::CcKind;
    use fncc_net::ids::{FlowId, HostId};
    use fncc_net::topology::Topology;
    use fncc_net::units::Bandwidth;

    const BW: Bandwidth = Bandwidth::gbps(100);
    const PROP: TimeDelta = TimeDelta::from_ns(1500);

    /// A paper-default packet half over an `n`-sender dumbbell.
    fn fg(n: u32, kind: CcKind, flows: Vec<FlowSpec>) -> SimBuilder {
        SimBuilder::new(Topology::dumbbell(n, 3, BW, PROP), kind).flows(flows)
    }

    fn flow(id: u32, src: u32, dst: u32, size: u64, start_us: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            size,
            start: SimTime::ZERO + TimeDelta::from_us(start_us),
        }
    }

    fn fcts(t: &Telemetry) -> Vec<(FlowId, Option<SimTime>)> {
        let mut v: Vec<_> = t.flow_records().map(|r| (r.flow, r.finish)).collect();
        v.sort_by_key(|(f, _)| f.0);
        v
    }

    /// With an empty background, the hybrid engine IS the packet DES:
    /// no backlog ever lands on a port, so FCTs match exactly.
    #[test]
    fn empty_background_matches_pure_des() {
        let flows = vec![flow(0, 0, 2, 500_000, 0), flow(1, 1, 2, 500_000, 10)];
        let horizon = SimTime::from_ms(2);
        let mut des = fg(3, CcKind::Fncc, flows.clone()).build();
        des.run_until(horizon);
        let model = RateModel::paper_default(CcKind::Fncc);
        let mut h = HybridSim::new(fg(3, CcKind::Fncc, flows), Vec::new(), model).unwrap();
        h.run_until(horizon).unwrap();
        assert!(h.foreground_done());
        let r = h.into_result();
        assert_eq!(fcts(&r.fg), fcts(des.telemetry()));
        assert_eq!(r.backlog_pushes, 0, "no background → no shadow queue");
        assert!(r.syncs > 0);
    }

    /// The coupling emits trace events into the foreground ring when
    /// armed; the background ring stays unarmed.
    #[test]
    fn trace_records_hybrid_events() {
        let fg = fg(3, CcKind::Fncc, vec![flow(0, 0, 2, 200_000, 0)]).trace(true);
        let bg = vec![flow(100, 1, 2, 12_500_000, 0)];
        let mut h = HybridSim::new(fg, bg, RateModel::paper_default(CcKind::Fncc)).unwrap();
        h.run_until(SimTime::from_ms(2)).unwrap();
        let r = h.into_result();
        let kinds: Vec<&str> = r.fg.rec.trace.events().map(|e| e.kind()).collect();
        let count = |k: &str| kinds.iter().filter(|&&e| e == k).count() as u64;
        assert_eq!(count("hybrid_sync"), r.syncs);
        assert_eq!(count("hybrid_reserve"), r.reservations);
        assert_eq!(count("hybrid_backlog"), r.backlog_pushes);
        assert!(r.backlog_pushes > 0);
        assert!(!r.bg.rec.trace.enabled(), "the background is never traced");
    }

    /// Two identical runs produce byte-identical foreground FCTs and
    /// coupling counters (determinism is a hard guarantee).
    #[test]
    fn hybrid_runs_are_deterministic() {
        let run = || {
            let fg = fg(
                4,
                CcKind::Hpcc,
                vec![flow(0, 0, 3, 400_000, 0), flow(1, 1, 3, 300_000, 7)],
            );
            let bg = vec![flow(10, 2, 3, 50_000_000, 0), flow(11, 3, 0, 25_000_000, 3)];
            let mut h = HybridSim::new(fg, bg, RateModel::paper_default(CcKind::Hpcc)).unwrap();
            h.run_until(SimTime::from_ms(6)).unwrap();
            let r = h.into_result();
            (fcts(&r.fg), r.syncs, r.reservations, r.backlog_pushes)
        };
        assert_eq!(run(), run());
    }

    /// The foreground fabric takes the builder's seed with or without
    /// faults. It used to keep the default seed in fault-free runs, so the
    /// ECN-marking streams of DCQCN and Throttle did not vary across a
    /// scenario's `seeds`.
    #[test]
    fn foreground_fabric_is_seeded_without_faults() {
        let fg = fg(3, CcKind::Dcqcn, vec![flow(0, 0, 2, 100_000, 0)]).fabric(|f| f.seed = 9);
        let h = HybridSim::new(fg, Vec::new(), RateModel::paper_default(CcKind::Dcqcn)).unwrap();
        assert_eq!(h.fabric().cfg.seed, 9);
    }

    /// The merged record walk interleaves the two halves by flow id: the
    /// sequence a sort of both halves' records together gives, though the
    /// halves' ids interleave and the background starts out of id order.
    #[test]
    fn merged_records_interleave_both_halves_by_id() {
        let fg_flows = vec![flow(0, 0, 3, 200_000, 10), flow(2, 1, 3, 100_000, 0)];
        let bg = vec![flow(3, 2, 3, 2_000_000, 0), flow(1, 0, 3, 1_000_000, 5)];
        let model = RateModel::paper_default(CcKind::Fncc);
        let mut h = HybridSim::new(fg(3, CcKind::Fncc, fg_flows), bg, model).unwrap();
        let done = h
            .run_to_completion(TimeDelta::from_us(200), SimTime::from_ms(20))
            .unwrap();
        assert!(done);
        let r = h.into_result();
        let chained: Vec<FlowRecord> = r.fg.flow_records().copied().chain(r.bg.records()).collect();
        let mut by_id = chained.clone();
        by_id.sort_by_key(|rec| rec.flow);
        assert_ne!(chained, by_id, "the halves' ids must interleave");
        assert_eq!(r.records().collect::<Vec<_>>(), by_id);
    }

    /// run_to_completion drains both halves; with no foreground flow it
    /// waits on the background alone.
    #[test]
    fn run_to_completion_drains_both_halves() {
        let bg = || vec![flow(1, 1, 2, 1_000_000, 0)];
        for fg_flows in [vec![flow(0, 0, 2, 100_000, 0)], Vec::new()] {
            let fg = fg(3, CcKind::Swift, fg_flows);
            let mut h = HybridSim::new(fg, bg(), RateModel::paper_default(CcKind::Swift)).unwrap();
            let cap = SimTime::from_ms(200);
            let done = h.run_to_completion(TimeDelta::from_ms(1), cap).unwrap();
            assert!(done);
            assert!(h.now() < cap, "idled to the cap");
            assert_eq!(h.bg.remaining_flows(), 0);
        }
    }
}
