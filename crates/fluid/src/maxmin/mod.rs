//! Water-filling max-min fair allocation with per-flow rate caps.
//!
//! The classic progressive-filling algorithm: raise every unfrozen flow's
//! rate uniformly until a link saturates (or a flow hits its cap), freeze
//! the affected flows, subtract their share, repeat.
//!
//! The implementation leans on two structural facts. First, an unfrozen
//! link's saturation level is simply `remaining / users` — independent of
//! the current water level. Second, that quantity can only *increase* when
//! other flows freeze (a flow frozen at level `x ≤ remaining/users` leaves
//! `(remaining − x)/(users − 1) ≥ remaining/users`). Together they make a
//! *lazy min-heap* exact: pop the smallest recorded level, recompute it
//! fresh, and either accept it (it is still the global minimum) or push it
//! back with its new value. Every accepted pop freezes at least one link's
//! worth of flows, so the loop terminates after `O(links + flows)` heap
//! operations instead of the naive `O(rounds · links)` rescans.
//!
//! [`WaterFiller`] owns scratch buffers so the per-event hot path in
//! [`crate::sim::BackgroundFluid`] allocates nothing; the free function
//! [`water_fill`] is the convenient one-shot wrapper used by tests.
//!
//! # Incremental mode
//!
//! [`WaterFiller::allocate`] solves from scratch and stays the reference
//! implementation. The *incremental* API ([`WaterFiller::begin_incremental`],
//! [`WaterFiller::add_flow`] / [`WaterFiller::remove_flow`] /
//! [`WaterFiller::rebalance`]) persists the converged solution across
//! events — per-slot rates, per-link residual capacity and binding level,
//! and the global freeze order — and warm-starts the next solve from it.
//!
//! The warm start is exact, not heuristic. Progressive filling freezes
//! flows in ascending level order, and an arrival/departure only perturbs
//! the *dirty* links on the changed flows' paths. For each dirty link we
//! replay its freeze history (its flows sorted by converged rate) under the
//! new membership and find the first water level θ at which it would now
//! saturate — additionally capped by the level at which it *used to* bind,
//! since a changed binding link invalidates its old freeze round. Below
//! `θ = min over dirty links`, the old process is untouched: every flow
//! frozen below θ keeps its rate, bit for bit. Flows at or above θ (plus
//! all pending additions) form the *residual* problem, re-solved by the
//! same lazy-heap algorithm over link state seeded from the persisted
//! solution. When the delta invalidates too much (a dirty link touches a
//! large fraction of all path entries — e.g. an incast receiver), the
//! rebalance falls back to a full solve over the persistent structure;
//! either way no `Demand` array or CSR is rebuilt per event. The property
//! tests in this module pin the incremental path to the one-shot oracle
//! over random arrival/departure sequences.

mod heap;
mod incremental;

use heap::LazyHeap;
pub use incremental::Rebalance;

/// One flow's demand: an optional rate cap and the directed links it
/// crosses (ids into the capacity array).
#[derive(Clone, Debug)]
pub struct Demand<'a> {
    /// Upper bound on the flow's rate (bits/s); `f64::INFINITY` when only
    /// the links limit it.
    pub cap: f64,
    /// Directed links on the flow's path.
    pub path: &'a [u32],
}

/// Relative tie width for "same" saturation levels: one part per billion
/// (≈ 0.1 bit/s at 100 Gb/s) is far below physical meaning but merges
/// float-divergent equal bottlenecks, so symmetric workloads (permutation,
/// uniform incast) freeze in a handful of rounds.
const TIE_REL: f64 = 1e-9;

/// Per-link solve scratch, rebuilt by every solve (one-shot or residual;
/// the two never overlap, so they share it). One struct per link keeps
/// what the freeze loop reads and writes together on one cache line.
#[derive(Clone, Copy, Default)]
struct LinkScratch {
    /// Headroom not yet claimed by frozen flows.
    rem: f64,
    /// `mark == res_epoch` ⇔ the link joined the current residual solve.
    mark: u64,
    /// Count of *unfrozen* flows.
    users: u32,
    /// Total flow count this solve (snapshot of `users` at build).
    count: u32,
    /// CSR fill cursor; after building, one past the link's slice in
    /// `link_flows` (slice start = cursor − count).
    cursor: u32,
}

impl LinkScratch {
    /// Current saturation level (`∞` once all the link's flows froze).
    #[inline]
    fn fill(&self) -> f64 {
        if self.users == 0 {
            f64::INFINITY
        } else {
            self.rem.max(0.0) / self.users as f64
        }
    }
}

/// The converged solution's per-link state, persisted between rebalances.
#[derive(Clone, Copy)]
struct LinkState {
    /// Converged residual capacity: `capacity − Σ rates` of its flows.
    remaining: f64,
    /// Level at which the link last froze flows (`∞` if it never bound).
    level: f64,
    /// Pre-solve snapshot of `level`, for verification; taken when
    /// `old_mark` first meets the current `rebalance_id`.
    old_level: f64,
    old_mark: u64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            remaining: 0.0,
            level: f64::INFINITY,
            old_level: f64::INFINITY,
            old_mark: 0,
        }
    }
}

/// Per-slot solver state; the recruit and verify passes read `rate`,
/// `member` and `pending` of every member of a link, so they sit together.
#[derive(Clone, Copy, Default)]
struct SlotSolve {
    /// Converged rate (0 until first rebalanced).
    rate: f64,
    /// `member == rebalance_id` ⇔ the slot joined this rebalance's
    /// residual (stable across its expansion rounds).
    member: u64,
    /// Links on the slot's path (0 while the slot is free).
    hops: u16,
    alive: bool,
    /// Added since the last rebalance (no converged rate yet).
    pending: bool,
}

/// Reusable progressive-filling allocator over a fixed link universe.
#[derive(Default)]
pub struct WaterFiller {
    n_links: usize,
    link: Vec<LinkScratch>,
    /// Flow indices grouped by link (CSR payload).
    link_flows: Vec<u32>,
    /// Links used by at least one flow in the last one-shot run.
    active_links: Vec<u32>,
    /// Lazy min-heap of `(saturation level, link)`.
    heap: LazyHeap,
    /// Residual solve: min-heap of `(cap, residual flow)`, a flow's cap
    /// being the least headroom among the links no other residual flow
    /// crosses.
    caps: LazyHeap,
    /// Residual-solve scratch: `(flow, headroom)` of each one-user link,
    /// and each flow's least such headroom.
    one_user: Vec<(u32, f64)>,
    cap_of: Vec<f64>,
    frozen: Vec<bool>,
    by_cap: Vec<u32>,

    // ------------------------------------------------------------------
    // Incremental mode (see module docs). All fields below persist the
    // converged solution between `rebalance` calls; the one-shot
    // `allocate` never touches them.
    // ------------------------------------------------------------------
    /// Link capacities fixed at `begin_incremental`.
    inc_capacity: Vec<f64>,
    /// True once a converged solution exists to warm-start from.
    inc_ready: bool,
    /// Per-slot paths, flat: slot `s` owns `hop_stride` entries from
    /// `s · hop_stride`, the first `slots[s].hops` of them live.
    hop_link: Vec<u32>,
    /// Per-hop back-pointers, laid out like `hop_link`: this flow's index
    /// inside that link's `link_list`, enabling O(1) removal.
    hop_pos: Vec<u32>,
    hop_stride: usize,
    slots: Vec<SlotSolve>,
    free_slots: Vec<u32>,
    n_alive: usize,
    /// Σ path lengths over alive slots (the full-solve work estimate).
    total_entries: usize,
    /// Per-link flows crossing it, as `(slot, hop index into its path)`.
    link_list: Vec<Vec<(u32, u8)>>,
    link_state: Vec<LinkState>,
    /// Links with at least one flow.
    inc_active: Vec<u32>,
    inc_active_pos: Vec<u32>,
    /// Links whose membership changed since the last rebalance.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    pending_adds: Vec<u32>,
    /// Links that went from idle to carrying flows since last rebalance.
    activated: Vec<u32>,
    /// True while deltas are accumulating since the last rebalance.
    deltas_open: bool,
    /// Slots whose rate was (re)computed by the last rebalance.
    changed: Vec<u32>,
    // Residual-solve scratch (re-derived every rebalance). The solve runs
    // on dense per-event structures — a residual CSR over `link_flows`
    // (shared with the one-shot path) plus flat path copies — so the hot
    // loop touches compact arrays, not the persistent per-link Vecs.
    res_links: Vec<u32>,
    res_path: Vec<u32>,
    res_off: Vec<u32>,
    res_epoch: u64,
    /// Per-dirty-link divergence level, aligned with `dirty`.
    dirty_theta: Vec<f64>,
    /// Monotone id of the current rebalance call.
    rebalance_id: u64,
    violations: Vec<u32>,
    bfs_mark: Vec<u64>,
    /// BFS frontier: `(link, recruit threshold)`.
    bfs_queue: Vec<(u32, f64)>,
    rate_scratch: Vec<f64>,
    /// Reciprocal table: `inv[u] = 1/u`, so the residual solve multiplies
    /// instead of dividing in the innermost loop.
    inv: Vec<f64>,
    n_full_solves: u64,
    n_incremental_solves: u64,
    n_single_bottleneck_solves: u64,
}

impl WaterFiller {
    /// An allocator for a network of `n_links` directed links.
    pub fn new(n_links: usize) -> Self {
        WaterFiller {
            n_links,
            link: vec![LinkScratch::default(); n_links],
            ..Default::default()
        }
    }

    /// Max-min fair rates (bits/s) for `flows` over links with the given
    /// `capacity` (bits/s), written into `rates` (resized to match).
    /// Flows with empty paths get their cap (degenerate, defensive).
    pub fn allocate(&mut self, capacity: &[f64], flows: &[Demand<'_>], rates: &mut Vec<f64>) {
        assert_eq!(capacity.len(), self.n_links, "capacity array size mismatch");
        let nf = flows.len();
        rates.clear();
        rates.resize(nf, 0.0);
        if nf == 0 {
            return;
        }

        // Reset only the links the previous run touched.
        for &l in &self.active_links {
            self.link[l as usize].users = 0;
        }
        self.active_links.clear();
        let mut total = 0u32;
        for f in flows {
            for &l in f.path {
                let k = &mut self.link[l as usize];
                if k.users == 0 {
                    self.active_links.push(l);
                    k.rem = capacity[l as usize];
                }
                k.users += 1;
                total += 1;
            }
        }

        // CSR flow lists per active link.
        self.link_flows.clear();
        self.link_flows.resize(total as usize, 0);
        let mut at = 0u32;
        for &l in &self.active_links {
            let k = &mut self.link[l as usize];
            k.count = k.users;
            k.cursor = at;
            at += k.users;
        }
        for (i, f) in flows.iter().enumerate() {
            for &l in f.path {
                let k = &mut self.link[l as usize];
                self.link_flows[k.cursor as usize] = i as u32;
                k.cursor += 1;
            }
        }
        // Each cursor now points one past its link's slice.

        self.frozen.clear();
        self.frozen.resize(nf, false);
        // The cap ladder is only needed when some cap is finite; the fluid
        // hot path passes every cap as ∞, so skip the O(n log n) sort then.
        self.by_cap.clear();
        if flows.iter().any(|f| f.cap.is_finite()) {
            self.by_cap.extend(0..nf as u32);
            self.by_cap.sort_unstable_by(|&a, &b| {
                flows[a as usize]
                    .cap
                    .partial_cmp(&flows[b as usize].cap)
                    .expect("NaN cap")
            });
        }
        let ncap = self.by_cap.len();
        let mut cap_ix = 0usize;
        let mut unfrozen = nf;

        // Seed the lazy heap with every active link's saturation level.
        self.heap.clear();
        self.heap.reserve(self.active_links.len());
        for &l in &self.active_links {
            self.heap.push(self.link[l as usize].fill(), l);
        }

        macro_rules! freeze {
            ($i:expr, $at:expr) => {{
                let i = $i as usize;
                if !self.frozen[i] {
                    self.frozen[i] = true;
                    rates[i] = $at;
                    unfrozen -= 1;
                    for &l in flows[i].path {
                        self.link[l as usize].rem -= $at;
                        self.link[l as usize].users -= 1;
                    }
                }
            }};
        }

        // Freeze every flow of link `l` at `level`.
        macro_rules! freeze_link {
            ($l:expr, $level:expr) => {{
                let k = self.link[$l as usize];
                let (begin, end) = (k.cursor - k.count, k.cursor);
                for ix in begin..end {
                    let i = self.link_flows[ix as usize];
                    freeze!(i, $level);
                }
            }};
        }

        while unfrozen > 0 {
            // True minimum saturation level via lazy re-evaluation: recorded
            // keys are lower bounds (levels only rise), so a popped entry
            // whose fresh value still beats the next key is the minimum.
            let mut min_link: Option<(f64, u32)> = None;
            while let Some((key, l)) = self.heap.pop() {
                let fresh = self.link[l as usize].fill();
                if fresh.is_infinite() {
                    continue; // all its flows froze through other links
                }
                if fresh <= key * (1.0 + TIE_REL)
                    || self.heap.first().is_none_or(|&(next, _)| fresh <= next)
                {
                    min_link = Some((fresh, l));
                    break;
                }
                self.heap.push(fresh, l);
            }

            while cap_ix < ncap && self.frozen[self.by_cap[cap_ix] as usize] {
                cap_ix += 1;
            }
            let cap_limit = if cap_ix < ncap {
                flows[self.by_cap[cap_ix] as usize].cap
            } else {
                f64::INFINITY
            };

            match min_link {
                Some((link_limit, l)) if cap_limit > link_limit => {
                    // The bottleneck link saturates first. Also drain every
                    // other link tied at (numerically) the same level.
                    let tie = link_limit * (1.0 + TIE_REL) + 1e-30;
                    freeze_link!(l, link_limit);
                    while let Some(&(key, l2)) = self.heap.first() {
                        if key > tie {
                            break;
                        }
                        self.heap.pop();
                        let fresh = self.link[l2 as usize].fill();
                        if fresh.is_infinite() {
                            continue;
                        }
                        if fresh <= tie {
                            freeze_link!(l2, link_limit);
                        } else {
                            self.heap.push(fresh, l2);
                        }
                    }
                }
                Some((link_limit, l)) => {
                    // A cap binds first: put the link back, freeze every
                    // flow capped at or below this level.
                    self.heap.push(link_limit, l);
                    while cap_ix < ncap {
                        let i = self.by_cap[cap_ix];
                        if self.frozen[i as usize] {
                            cap_ix += 1;
                            continue;
                        }
                        if flows[i as usize].cap > cap_limit {
                            break;
                        }
                        freeze!(i, flows[i as usize].cap);
                        cap_ix += 1;
                    }
                }
                None if cap_limit.is_finite() => {
                    // Only capped, link-less flows remain.
                    while cap_ix < ncap {
                        let i = self.by_cap[cap_ix];
                        if !self.frozen[i as usize] {
                            freeze!(i, flows[i as usize].cap);
                        }
                        cap_ix += 1;
                    }
                }
                None => {
                    // No links, no finite caps: defensive fallback.
                    for i in 0..nf as u32 {
                        if !self.frozen[i as usize] {
                            let cap = flows[i as usize].cap.min(f64::MAX);
                            freeze!(i, cap);
                        }
                    }
                }
            }
        }
    }
}

/// One-shot convenience wrapper over [`WaterFiller`].
pub fn water_fill(capacity: &[f64], flows: &[Demand<'_>]) -> Vec<f64> {
    let mut wf = WaterFiller::new(capacity.len());
    let mut rates = Vec::new();
    wf.allocate(capacity, flows, &mut rates);
    rates
}

/// Verify feasibility: per-link load relative to capacity. Returns the
/// worst relative overshoot (≤ 0 when feasible).
pub fn worst_oversubscription(capacity: &[f64], flows: &[Demand<'_>], rates: &[f64]) -> f64 {
    let mut load = vec![0.0f64; capacity.len()];
    for (f, &r) in flows.iter().zip(rates) {
        for &l in f.path {
            load[l as usize] += r;
        }
    }
    load.iter()
        .zip(capacity)
        .map(|(&ld, &cap)| if cap > 0.0 { ld / cap - 1.0 } else { 0.0 })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Verify Pareto optimality / max-min structure: every flow is either at
/// its cap or crosses at least one link whose load is within `tol` of its
/// capacity (a saturated bottleneck — no flow's rate can be raised without
/// lowering another's). Returns the first violating flow.
pub fn find_non_pareto_flow(
    capacity: &[f64],
    flows: &[Demand<'_>],
    rates: &[f64],
    tol: f64,
) -> Option<usize> {
    let mut load = vec![0.0f64; capacity.len()];
    for (f, &r) in flows.iter().zip(rates) {
        for &l in f.path {
            load[l as usize] += r;
        }
    }
    for (i, (f, &r)) in flows.iter().zip(rates).enumerate() {
        if r >= f.cap * (1.0 - tol) {
            continue; // capped
        }
        let bottlenecked = f
            .path
            .iter()
            .any(|&l| load[l as usize] >= capacity[l as usize] * (1.0 - tol));
        if !bottlenecked {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests;
