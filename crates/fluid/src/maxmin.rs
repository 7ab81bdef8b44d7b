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

/// How a [`WaterFiller::rebalance`] call resolved the pending deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rebalance {
    /// No flow was added or removed since the last rebalance.
    Noop,
    /// Warm start: only the residual above the divergence level re-solved.
    Incremental,
    /// The delta invalidated too much (or no converged solution existed);
    /// solved from scratch over the persistent structure.
    Full,
    /// Closed form: the event dirtied a single binding link whose members
    /// are bound by it alone, so the new level is `(capacity − Σ frozen)
    /// / k` with no progressive filling at all.
    SingleBottleneck,
}

/// Reusable progressive-filling allocator over a fixed link universe.
pub struct WaterFiller {
    n_links: usize,
    /// Per-link headroom not yet claimed by frozen flows.
    remaining: Vec<f64>,
    /// Per-link count of *unfrozen* flows.
    users: Vec<u32>,
    /// Per-link total flow count this run (snapshot of `users` at build).
    count: Vec<u32>,
    /// Per-link CSR fill cursor; after building, `cursor[l]` is one past
    /// link `l`'s slice in `link_flows` (slice start = cursor − count).
    cursor: Vec<u32>,
    /// Flow indices grouped by link (CSR payload).
    link_flows: Vec<u32>,
    /// Links used by at least one flow this run.
    active_links: Vec<u32>,
    /// Lazy min-heap of `(saturation level, link)`.
    heap: Vec<(f64, u32)>,
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
    /// Per-slot path (empty and pooled for reuse when the slot is free).
    slot_path: Vec<Vec<u32>>,
    /// Per-slot back-pointers: this flow's index inside each path link's
    /// `link_list`, enabling O(1) removal.
    slot_pos: Vec<Vec<u32>>,
    /// Per-slot converged rate (0 until first rebalanced).
    slot_rate: Vec<f64>,
    slot_alive: Vec<bool>,
    /// Bumped when a slot is freed; invalidates its `order` entries.
    slot_gen: Vec<u32>,
    /// Added since the last rebalance (no converged rate yet).
    slot_pending: Vec<bool>,
    free_slots: Vec<u32>,
    n_alive: usize,
    /// Σ path lengths over alive slots (the full-solve work estimate).
    total_entries: usize,
    /// Per-link flows crossing it, as `(slot, hop index into its path)`.
    link_list: Vec<Vec<(u32, u8)>>,
    /// Converged residual capacity: `capacity − Σ rates` of its flows.
    link_remaining: Vec<f64>,
    /// Level at which the link last froze flows (`∞` if it never bound).
    link_level: Vec<f64>,
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
    res_rem: Vec<f64>,
    res_users: Vec<u32>,
    res_links: Vec<u32>,
    res_path: Vec<u32>,
    res_off: Vec<u32>,
    link_mark: Vec<u64>,
    /// `res_state[slot] == res_epoch` ⇔ slot joined the current residual.
    res_state: Vec<u64>,
    res_epoch: u64,
    /// `res_member[slot] == rebalance_id` ⇔ slot joined this rebalance's
    /// residual (stable across expansion rounds, unlike `res_state`).
    res_member: Vec<u64>,
    /// Per-dirty-link divergence level, aligned with `dirty`.
    dirty_theta: Vec<f64>,
    /// Pre-solve binding level snapshot per link, for verification.
    old_level: Vec<f64>,
    old_mark: Vec<u64>,
    /// Monotone id of the current rebalance call.
    rebalance_id: u64,
    violations: Vec<u32>,
    bfs_mark: Vec<u64>,
    /// BFS frontier: `(link, recruit threshold)`.
    bfs_queue: Vec<(u32, f64)>,
    rate_scratch: Vec<f64>,
    /// Reciprocal table: `inv[u] = 1/u`, so `fill` multiplies instead of
    /// dividing in the innermost loop.
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
            remaining: vec![0.0; n_links],
            users: vec![0; n_links],
            count: vec![0; n_links],
            cursor: vec![0; n_links],
            link_flows: Vec::new(),
            active_links: Vec::new(),
            heap: Vec::new(),
            frozen: Vec::new(),
            by_cap: Vec::new(),
            inc_capacity: Vec::new(),
            inc_ready: false,
            slot_path: Vec::new(),
            slot_pos: Vec::new(),
            slot_rate: Vec::new(),
            slot_alive: Vec::new(),
            slot_gen: Vec::new(),
            slot_pending: Vec::new(),
            free_slots: Vec::new(),
            n_alive: 0,
            total_entries: 0,
            link_list: Vec::new(),
            link_remaining: Vec::new(),
            link_level: Vec::new(),
            inc_active: Vec::new(),
            inc_active_pos: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            pending_adds: Vec::new(),
            activated: Vec::new(),
            deltas_open: false,
            changed: Vec::new(),
            res_rem: Vec::new(),
            res_users: Vec::new(),
            res_links: Vec::new(),
            res_path: Vec::new(),
            res_off: Vec::new(),
            link_mark: Vec::new(),
            res_state: Vec::new(),
            res_epoch: 0,
            res_member: Vec::new(),
            dirty_theta: Vec::new(),
            old_level: Vec::new(),
            old_mark: Vec::new(),
            rebalance_id: 0,
            violations: Vec::new(),
            bfs_mark: Vec::new(),
            bfs_queue: Vec::new(),
            rate_scratch: Vec::new(),
            inv: Vec::new(),
            n_full_solves: 0,
            n_incremental_solves: 0,
            n_single_bottleneck_solves: 0,
        }
    }

    /// Links that carried at least one flow in the last `allocate` call.
    #[inline]
    pub fn last_active_links(&self) -> &[u32] {
        &self.active_links
    }

    /// Capacity left unallocated on link `l` after the last `allocate`
    /// call (bits/s). Only meaningful for links in
    /// [`Self::last_active_links`]; a residual near zero means the link is
    /// saturated — it was a bottleneck in the max-min solution.
    #[inline]
    pub fn residual(&self, l: u32) -> f64 {
        self.remaining[l as usize]
    }

    /// Current saturation level of link `l` (`∞` once all its flows froze).
    #[inline]
    fn fill(&self, l: u32) -> f64 {
        let u = self.users[l as usize];
        if u == 0 {
            f64::INFINITY
        } else {
            self.remaining[l as usize].max(0.0) / u as f64
        }
    }

    #[inline]
    fn heap_push(&mut self, key: f64, l: u32) {
        self.heap.push((key, l));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap[p].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(i, p);
            i = p;
        }
    }

    #[inline]
    fn heap_pop(&mut self) -> Option<(f64, u32)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (a, b) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if a < n && self.heap[a].0 < self.heap[m].0 {
                m = a;
            }
            if b < n && self.heap[b].0 < self.heap[m].0 {
                m = b;
            }
            if m == i {
                break;
            }
            self.heap.swap(i, m);
            i = m;
        }
        top
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
            self.users[l as usize] = 0;
        }
        self.active_links.clear();
        let mut total = 0u32;
        for f in flows {
            for &l in f.path {
                if self.users[l as usize] == 0 {
                    self.active_links.push(l);
                    self.remaining[l as usize] = capacity[l as usize];
                }
                self.users[l as usize] += 1;
                total += 1;
            }
        }

        // CSR flow lists per active link.
        self.link_flows.clear();
        self.link_flows.resize(total as usize, 0);
        let mut at = 0u32;
        for &l in &self.active_links {
            let n = self.users[l as usize];
            self.count[l as usize] = n;
            self.cursor[l as usize] = at;
            at += n;
        }
        for (i, f) in flows.iter().enumerate() {
            for &l in f.path {
                let c = self.cursor[l as usize];
                self.link_flows[c as usize] = i as u32;
                self.cursor[l as usize] = c + 1;
            }
        }
        // cursor[l] now points one past link l's slice.

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
        for li in 0..self.active_links.len() {
            let l = self.active_links[li];
            let key = self.fill(l);
            self.heap_push(key, l);
        }

        macro_rules! freeze {
            ($i:expr, $at:expr) => {{
                let i = $i as usize;
                if !self.frozen[i] {
                    self.frozen[i] = true;
                    rates[i] = $at;
                    unfrozen -= 1;
                    for &l in flows[i].path {
                        self.remaining[l as usize] -= $at;
                        self.users[l as usize] -= 1;
                    }
                }
            }};
        }

        // Freeze every flow of link `l` at `level`.
        macro_rules! freeze_link {
            ($l:expr, $level:expr) => {{
                let l = $l as usize;
                let end = self.cursor[l];
                let begin = end - self.count[l];
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
            while let Some((key, l)) = self.heap_pop() {
                let fresh = self.fill(l);
                if fresh.is_infinite() {
                    continue; // all its flows froze through other links
                }
                if fresh <= key * (1.0 + TIE_REL)
                    || self.heap.first().is_none_or(|&(next, _)| fresh <= next)
                {
                    min_link = Some((fresh, l));
                    break;
                }
                self.heap_push(fresh, l);
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
                        self.heap_pop();
                        let fresh = self.fill(l2);
                        if fresh.is_infinite() {
                            continue;
                        }
                        if fresh <= tie {
                            freeze_link!(l2, link_limit);
                        } else {
                            self.heap_push(fresh, l2);
                        }
                    }
                }
                Some((link_limit, l)) => {
                    // A cap binds first: put the link back, freeze every
                    // flow capped at or below this level.
                    self.heap_push(link_limit, l);
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

    // ------------------------------------------------------------------
    // Incremental mode
    // ------------------------------------------------------------------

    /// Enter (or reset) incremental mode over fixed link `capacity`.
    /// Clears any previously persisted solution and slot state.
    pub fn begin_incremental(&mut self, capacity: &[f64]) {
        assert_eq!(capacity.len(), self.n_links, "capacity array size mismatch");
        self.inc_capacity.clear();
        self.inc_capacity.extend_from_slice(capacity);
        self.inc_ready = false;
        self.slot_path.clear();
        self.slot_pos.clear();
        self.slot_rate.clear();
        self.slot_alive.clear();
        self.slot_gen.clear();
        self.slot_pending.clear();
        self.free_slots.clear();
        self.n_alive = 0;
        self.total_entries = 0;
        self.link_list.clear();
        self.link_list.resize(self.n_links, Vec::new());
        self.link_remaining.clear();
        self.link_remaining.resize(self.n_links, 0.0);
        self.link_level.clear();
        self.link_level.resize(self.n_links, f64::INFINITY);
        self.inc_active.clear();
        self.inc_active_pos.clear();
        self.inc_active_pos.resize(self.n_links, u32::MAX);
        self.dirty.clear();
        self.dirty_flag.clear();
        self.dirty_flag.resize(self.n_links, false);
        self.pending_adds.clear();
        self.activated.clear();
        self.deltas_open = false;
        self.changed.clear();
        self.res_rem.resize(self.n_links, 0.0);
        self.res_users.resize(self.n_links, 0);
        self.link_mark.clear();
        self.link_mark.resize(self.n_links, 0);
        self.bfs_mark.clear();
        self.bfs_mark.resize(self.n_links, 0);
        self.old_level.clear();
        self.old_level.resize(self.n_links, f64::INFINITY);
        self.old_mark.clear();
        self.old_mark.resize(self.n_links, 0);
        self.res_state.clear();
        self.res_member.clear();
        self.res_epoch = 0;
        self.rebalance_id = 0;
        self.n_full_solves = 0;
        self.n_incremental_solves = 0;
        self.n_single_bottleneck_solves = 0;
        if self.inv.is_empty() {
            self.inv = (0..4096)
                .map(|u| {
                    if u == 0 {
                        f64::INFINITY
                    } else {
                        1.0 / u as f64
                    }
                })
                .collect();
        }
    }

    /// `1/u` from the table (division fallback above its range).
    #[inline]
    fn recip(&self, u: u32) -> f64 {
        match self.inv.get(u as usize) {
            Some(&r) => r,
            None => 1.0 / u as f64,
        }
    }

    #[inline]
    fn mark_dirty(&mut self, l: u32) {
        if !self.dirty_flag[l as usize] {
            self.dirty_flag[l as usize] = true;
            self.dirty.push(l);
        }
    }

    /// Adjust link `l`'s capacity mid-session (bits/s), e.g. to push a
    /// demand reservation: the hybrid backend sets the fluid capacity to
    /// line rate minus the foreground's measured load. If the link carries
    /// flows it is marked dirty and the next [`Self::rebalance`]
    /// redistributes; an idle link just remembers the new capacity for its
    /// next activation. Incremental mode only.
    pub fn set_capacity(&mut self, l: u32, cap: f64) {
        assert!(
            !self.inc_capacity.is_empty() || self.n_links == 0,
            "call begin_incremental first"
        );
        let li = l as usize;
        let old = self.inc_capacity[li];
        if old == cap {
            return;
        }
        self.inc_capacity[li] = cap;
        if !self.link_list[li].is_empty() {
            self.open_deltas();
            // Keep the converged-residual invariant `remaining = capacity
            // − Σ rates`; a deep cut can drive it negative until the
            // rebalance squeezes the flows back under the new capacity.
            self.link_remaining[li] += cap - old;
            self.mark_dirty(l);
        }
    }

    /// Register a new flow over `path` (uncapped). Returns its stable slot
    /// id, valid until [`Self::remove_flow`]. Its rate is assigned by the
    /// next [`Self::rebalance`].
    pub fn add_flow(&mut self, path: &[u32]) -> u32 {
        assert!(
            !self.inc_capacity.is_empty() || self.n_links == 0,
            "call begin_incremental first"
        );
        assert!(path.len() <= u8::MAX as usize + 1, "path too long");
        self.open_deltas();
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.slot_path.len() as u32;
                self.slot_path.push(Vec::new());
                self.slot_pos.push(Vec::new());
                self.slot_rate.push(0.0);
                self.slot_alive.push(false);
                self.slot_gen.push(0);
                self.slot_pending.push(false);
                self.res_state.push(0);
                self.res_member.push(0);
                s
            }
        };
        let si = slot as usize;
        let mut path_v = std::mem::take(&mut self.slot_path[si]);
        let mut pos_v = std::mem::take(&mut self.slot_pos[si]);
        path_v.clear();
        pos_v.clear();
        for (hop, &l) in path.iter().enumerate() {
            let li = l as usize;
            if self.link_list[li].is_empty() {
                // Link (re)activates: no converged history applies to it.
                self.link_remaining[li] = self.inc_capacity[li];
                self.link_level[li] = f64::INFINITY;
                self.inc_active_pos[li] = self.inc_active.len() as u32;
                self.inc_active.push(l);
                self.activated.push(l);
            }
            pos_v.push(self.link_list[li].len() as u32);
            self.link_list[li].push((slot, hop as u8));
            path_v.push(l);
            self.mark_dirty(l);
        }
        self.slot_path[si] = path_v;
        self.slot_pos[si] = pos_v;
        self.slot_rate[si] = 0.0;
        self.slot_alive[si] = true;
        self.slot_pending[si] = true;
        self.pending_adds.push(slot);
        self.n_alive += 1;
        self.total_entries += path.len();
        slot
    }

    /// Retire the flow in `slot`. Its capacity share is refunded to its
    /// links; the next [`Self::rebalance`] redistributes it.
    pub fn remove_flow(&mut self, slot: u32) {
        let si = slot as usize;
        assert!(self.slot_alive[si], "remove_flow on a dead slot");
        self.open_deltas();
        let path_v = std::mem::take(&mut self.slot_path[si]);
        let pos_v = std::mem::take(&mut self.slot_pos[si]);
        let rate = self.slot_rate[si];
        for (&l, &pos) in path_v.iter().zip(&pos_v) {
            let li = l as usize;
            let list = &mut self.link_list[li];
            list.swap_remove(pos as usize);
            if (pos as usize) < list.len() {
                let (moved_slot, moved_hop) = list[pos as usize];
                self.slot_pos[moved_slot as usize][moved_hop as usize] = pos;
            }
            self.link_remaining[li] += rate;
            if list.is_empty() {
                // Deactivate: swap-remove from the active-link set.
                let p = self.inc_active_pos[li] as usize;
                self.inc_active.swap_remove(p);
                if p < self.inc_active.len() {
                    self.inc_active_pos[self.inc_active[p] as usize] = p as u32;
                }
                self.inc_active_pos[li] = u32::MAX;
            }
            self.mark_dirty(l);
        }
        self.total_entries -= path_v.len();
        // Return the (cleared) buffers to the slot for reuse.
        self.slot_path[si] = {
            let mut v = path_v;
            v.clear();
            v
        };
        self.slot_pos[si] = {
            let mut v = pos_v;
            v.clear();
            v
        };
        if self.slot_pending[si] {
            self.slot_pending[si] = false;
            let p = self.pending_adds.iter().position(|&s| s == slot).unwrap();
            self.pending_adds.swap_remove(p);
        }
        self.slot_alive[si] = false;
        self.slot_gen[si] = self.slot_gen[si].wrapping_add(1);
        self.slot_rate[si] = 0.0;
        self.free_slots.push(slot);
        self.n_alive -= 1;
    }

    /// Converged rate of the flow in `slot` (bits/s).
    #[inline]
    pub fn rate(&self, slot: u32) -> f64 {
        self.slot_rate[slot as usize]
    }

    /// The path registered for `slot`.
    #[inline]
    pub fn path(&self, slot: u32) -> &[u32] {
        &self.slot_path[slot as usize]
    }

    /// Slots whose rate was written by the last [`Self::rebalance`].
    #[inline]
    pub fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// Links currently crossed by at least one flow (incremental mode).
    #[inline]
    pub fn incremental_active_links(&self) -> &[u32] {
        &self.inc_active
    }

    /// Converged residual capacity of link `l` in incremental mode
    /// (bits/s); near zero means the link is a saturated bottleneck.
    #[inline]
    pub fn link_residual(&self, l: u32) -> f64 {
        self.link_remaining[l as usize]
    }

    /// Alive flow count in incremental mode.
    #[inline]
    pub fn n_active(&self) -> usize {
        self.n_alive
    }

    /// Slots of the alive flows currently crossing link `l` (incremental
    /// mode). The hybrid coupler walks these to age-weight each flow's
    /// claim on a shared foreground link.
    #[inline]
    pub fn link_flows(&self, l: u32) -> impl Iterator<Item = u32> + '_ {
        self.link_list[l as usize].iter().map(|&(slot, _)| slot)
    }

    /// True when link `l` currently carries at least one flow (incremental
    /// mode); [`Self::link_residual`] is only meaningful for active links.
    #[inline]
    pub fn is_active(&self, l: u32) -> bool {
        self.inc_active_pos[l as usize] != u32::MAX
    }

    /// `(full, incremental)` solve counts since `begin_incremental`.
    #[inline]
    pub fn solve_stats(&self) -> (u64, u64) {
        (self.n_full_solves, self.n_incremental_solves)
    }

    /// Closed-form single-bottleneck solve count since `begin_incremental`
    /// (events absorbed without running progressive filling at all).
    #[inline]
    pub fn single_bottleneck_solves(&self) -> u64 {
        self.n_single_bottleneck_solves
    }

    /// Links whose converged residual/level changed in the last
    /// [`Self::rebalance`] (residual links plus the event's dirty links):
    /// the only links whose saturation state can have moved.
    #[inline]
    pub fn touched_links(&self) -> &[u32] {
        &self.res_links
    }

    /// Links that went from idle to carrying flows in the last event
    /// (their congestion history is meaningless and must be reset).
    #[inline]
    pub fn activated_links(&self) -> &[u32] {
        &self.activated
    }

    /// Begin a delta batch lazily: the first add/remove after a rebalance
    /// resets the per-event activation record.
    #[inline]
    fn open_deltas(&mut self) {
        if !self.deltas_open {
            self.deltas_open = true;
            self.activated.clear();
        }
    }

    /// The first water level at which the perturbed freeze process departs
    /// from the persisted one: for each dirty link, replay its freeze
    /// history under the new membership and find where it would now
    /// saturate, capped by the level at which it used to bind.
    fn divergence_level(&mut self) -> f64 {
        let mut theta = f64::INFINITY;
        let mut rates = std::mem::take(&mut self.rate_scratch);
        self.dirty_theta.clear();
        self.dirty_theta.resize(self.dirty.len(), f64::INFINITY);
        for di in 0..self.dirty.len() {
            let l = self.dirty[di] as usize;
            if self.link_list[l].is_empty() {
                continue; // deactivated: constrains nothing any more
            }
            rates.clear();
            let mut pending_users = 0u32;
            for &(s, _) in &self.link_list[l] {
                if self.slot_pending[s as usize] {
                    pending_users += 1; // freezes only in the residual
                } else {
                    rates.push(self.slot_rate[s as usize]);
                }
            }
            rates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN rate"));
            let mut rem = self.inc_capacity[l];
            let mut users = (rates.len() + pending_users as usize) as u32;
            let mut theta_l = f64::INFINITY;
            for &r in &rates {
                let lvl = rem.max(0.0) / users as f64;
                if lvl <= r * (1.0 + TIE_REL) {
                    theta_l = lvl; // saturates before this flow would freeze
                    break;
                }
                rem -= r;
                users -= 1;
            }
            if theta_l.is_infinite() && pending_users > 0 {
                theta_l = rem.max(0.0) / pending_users as f64;
            }
            // If the link used to bind flows, its old freeze round is
            // invalid the moment its membership changes.
            theta_l = theta_l.min(self.link_level[l]);
            self.dirty_theta[di] = theta_l;
            theta = theta.min(theta_l);
        }
        self.rate_scratch = rates;
        theta
    }

    /// Floyd heapify over the whole `heap` buffer (O(n), vs n log n pushes).
    fn heapify(&mut self) {
        let n = self.heap.len();
        for i in (0..n / 2).rev() {
            let mut i = i;
            loop {
                let (a, b) = (2 * i + 1, 2 * i + 2);
                let mut m = i;
                if a < n && self.heap[a].0 < self.heap[m].0 {
                    m = a;
                }
                if b < n && self.heap[b].0 < self.heap[m].0 {
                    m = b;
                }
                if m == i {
                    break;
                }
                self.heap.swap(i, m);
                i = m;
            }
        }
    }

    /// Solve the residual subproblem over the slots currently collected in
    /// `self.changed` (whose `res_state` equals the current epoch). Link
    /// headroom is seeded from the persisted solution plus the residual
    /// flows' refunded converged rates, so prefix flows alone define the
    /// starting state; the solve then runs the same progressive filling as
    /// the one-shot oracle, over dense per-event CSR scratch. Updates
    /// rates, link residuals and binding levels in place.
    fn solve_residual(&mut self) {
        let m = self.changed.len();
        let epoch = self.res_epoch;
        self.res_links.clear();
        self.res_path.clear();
        self.res_off.clear();
        self.res_off.push(0);
        for ci in 0..m {
            let s = self.changed[ci] as usize;
            for hi in 0..self.slot_path[s].len() {
                let l = self.slot_path[s][hi];
                let li = l as usize;
                if self.link_mark[li] != epoch {
                    self.link_mark[li] = epoch;
                    self.res_rem[li] = self.link_remaining[li];
                    self.res_users[li] = 0;
                    self.res_links.push(l);
                    if self.old_mark[li] != self.rebalance_id {
                        // First touch this rebalance: snapshot the binding
                        // level the verification pass compares against.
                        self.old_mark[li] = self.rebalance_id;
                        self.old_level[li] = self.link_level[li];
                    }
                }
                // Refund the residual flow's converged share (0 for adds):
                // prefix flows alone define the starting headroom.
                self.res_rem[li] += self.slot_rate[s];
                self.res_users[li] += 1;
                self.res_path.push(l);
            }
            self.res_off.push(self.res_path.len() as u32);
        }

        // Residual CSR over the shared scratch arrays (`count`/`cursor`/
        // `link_flows` are rebuilt from scratch by every solve, one-shot
        // or incremental, so sharing them is safe).
        let total = self.res_path.len();
        self.link_flows.clear();
        self.link_flows.resize(total, 0);
        let mut at = 0u32;
        for li in 0..self.res_links.len() {
            let l = self.res_links[li] as usize;
            let n = self.res_users[l];
            self.count[l] = n;
            self.cursor[l] = at;
            at += n;
        }
        for ci in 0..m {
            let (b, e) = (self.res_off[ci] as usize, self.res_off[ci + 1] as usize);
            for pi in b..e {
                let l = self.res_path[pi] as usize;
                let c = self.cursor[l];
                self.link_flows[c as usize] = ci as u32;
                self.cursor[l] = c + 1;
            }
        }
        // cursor[l] now points one past link l's residual slice.

        self.frozen.clear();
        self.frozen.resize(m, false);
        self.heap.clear();
        for li in 0..self.res_links.len() {
            let l = self.res_links[li];
            let u = self.res_users[l as usize];
            self.link_level[l as usize] = f64::INFINITY;
            if u > 0 {
                let key = self.res_rem[l as usize].max(0.0) * self.recip(u);
                self.heap.push((key, l));
            }
        }
        self.heapify();

        let mut unfrozen = m;

        macro_rules! fill {
            ($l:expr) => {{
                let l = $l as usize;
                let u = self.res_users[l];
                if u == 0 {
                    f64::INFINITY
                } else {
                    self.res_rem[l].max(0.0) * self.recip(u)
                }
            }};
        }

        macro_rules! freeze_link {
            ($l:expr, $level:expr) => {{
                let l = $l as usize;
                self.link_level[l] = $level;
                let end = self.cursor[l];
                let begin = end - self.count[l];
                for ix in begin..end {
                    let f = self.link_flows[ix as usize] as usize;
                    if !self.frozen[f] {
                        self.frozen[f] = true;
                        self.slot_rate[self.changed[f] as usize] = $level;
                        unfrozen -= 1;
                        let (b, e) = (self.res_off[f] as usize, self.res_off[f + 1] as usize);
                        for pi in b..e {
                            let l2 = self.res_path[pi] as usize;
                            self.res_rem[l2] -= $level;
                            self.res_users[l2] -= 1;
                        }
                    }
                }
            }};
        }

        while unfrozen > 0 {
            let mut min_link: Option<(f64, u32)> = None;
            while let Some((key, l)) = self.heap_pop() {
                let fresh = fill!(l);
                if fresh.is_infinite() {
                    continue;
                }
                if fresh <= key * (1.0 + TIE_REL)
                    || self.heap.first().is_none_or(|&(next, _)| fresh <= next)
                {
                    min_link = Some((fresh, l));
                    break;
                }
                self.heap_push(fresh, l);
            }
            match min_link {
                Some((level, l)) => {
                    let tie = level * (1.0 + TIE_REL) + 1e-30;
                    freeze_link!(l, level);
                    while let Some(&(key, l2)) = self.heap.first() {
                        if key > tie {
                            break;
                        }
                        self.heap_pop();
                        let fresh = fill!(l2);
                        if fresh.is_infinite() {
                            continue;
                        }
                        if fresh <= tie {
                            freeze_link!(l2, level);
                        } else {
                            self.heap_push(fresh, l2);
                        }
                    }
                }
                None => {
                    // Only link-less (empty-path) flows remain; match the
                    // one-shot oracle's uncapped fallback.
                    for f in 0..m {
                        if !self.frozen[f] {
                            self.frozen[f] = true;
                            self.slot_rate[self.changed[f] as usize] = f64::MAX;
                            unfrozen -= 1;
                        }
                    }
                }
            }
        }

        // Persist the converged link state for the next warm start.
        for li in 0..self.res_links.len() {
            let l = self.res_links[li] as usize;
            self.link_remaining[l] = self.res_rem[l];
        }
    }

    /// Post-solve consistency check: a kept (non-residual) flow is valid
    /// only if no touched link now binds below its rate (it would need
    /// squeezing) and its old binding level did not move up or vanish (it
    /// would be entitled to more). Collects violating flows; an empty
    /// result proves the composed solution IS the global max-min solution
    /// (max-min allocations are unique, and every flow then has a
    /// saturated, level-consistent bottleneck).
    fn verify_residual(&mut self) -> bool {
        self.violations.clear();
        let rid = self.rebalance_id;
        for li in 0..self.res_links.len() {
            let l = self.res_links[li] as usize;
            let new_l = self.link_level[l];
            let old_l = self.old_level[l];
            if new_l.is_infinite() && old_l.is_infinite() {
                continue;
            }
            let rose = old_l.is_finite() && new_l > old_l * (1.0 + TIE_REL);
            for ix in 0..self.link_list[l].len() {
                let (s, _) = self.link_list[l][ix];
                let si = s as usize;
                if self.res_member[si] == rid {
                    continue; // re-solved already
                }
                let r = self.slot_rate[si];
                let squeeze = r > new_l * (1.0 + TIE_REL);
                let raise = rose && r >= old_l * (1.0 - TIE_REL);
                if squeeze || raise {
                    self.violations.push(s);
                }
            }
        }
        self.violations.is_empty()
    }

    /// Add flow `s` to the residual and queue its binding links as BFS
    /// frontier (non-binding links cannot transmit influence; they are
    /// still seeded as constraints by the solve).
    fn recruit(&mut self, s: u32) {
        let si = s as usize;
        self.res_member[si] = self.rebalance_id;
        self.changed.push(s);
        for hi in 0..self.slot_path[si].len() {
            let l = self.slot_path[si][hi];
            let lvl = self.link_level[l as usize];
            if lvl.is_finite() && self.bfs_mark[l as usize] != self.rebalance_id {
                self.bfs_mark[l as usize] = self.rebalance_id;
                self.bfs_queue.push((l, lvl));
            }
        }
    }

    /// Attempt the closed-form re-level of single dirty link `l`. Valid
    /// when `l` was already a binding bottleneck and every member at its
    /// level is bound by `l` alone (all other path links non-binding): the
    /// new level is `(capacity − Σ frozen-below rates) / k`, provided it
    /// stays above every frozen-below rate (freeze order unchanged) and a
    /// rate *increase* still fits inside each side link's headroom (they
    /// stay non-binding). Commits rates, residuals and the touched-links
    /// record itself and returns `true`; returns `false` untouched when
    /// any condition fails, falling back to the general solve.
    fn try_single_bottleneck(&mut self, l: u32) -> bool {
        let li = l as usize;
        let level = self.link_level[li];
        if self.link_list[li].is_empty() || !level.is_finite() {
            return false;
        }
        let at = level * (1.0 - TIE_REL);
        // Pass 1: split members into the k at-level flows the link binds
        // and the flows frozen below by their own bottlenecks.
        let mut k = 0u32;
        let mut frozen_sum = 0.0f64;
        let mut max_frozen = 0.0f64;
        for &(s, _) in &self.link_list[li] {
            let r = self.slot_rate[s as usize];
            if r >= at {
                k += 1;
            } else {
                frozen_sum += r;
                max_frozen = max_frozen.max(r);
            }
        }
        if k == 0 {
            return false;
        }
        let new_level = (self.inc_capacity[li] - frozen_sum).max(0.0) / k as f64;
        if new_level <= max_frozen * (1.0 + TIE_REL) {
            return false; // the freeze order would change
        }
        // Pass 2: validate the at-level members' side links and accumulate
        // the per-link rate delta (`res_rem`/`link_mark` double as the
        // event-scoped accumulator; any fallback path re-derives them).
        self.res_epoch += 1;
        let epoch = self.res_epoch;
        self.res_links.clear();
        for ix in 0..self.link_list[li].len() {
            let (s, _) = self.link_list[li][ix];
            let si = s as usize;
            let r = self.slot_rate[si];
            if r < at {
                continue;
            }
            for hi in 0..self.slot_path[si].len() {
                let l2 = self.slot_path[si][hi];
                if l2 == l {
                    continue;
                }
                let l2i = l2 as usize;
                if self.link_level[l2i].is_finite() {
                    return false; // a second binding link: cascade risk
                }
                if self.link_mark[l2i] != epoch {
                    self.link_mark[l2i] = epoch;
                    self.res_rem[l2i] = 0.0;
                    self.res_links.push(l2);
                }
                self.res_rem[l2i] += new_level - r;
            }
        }
        if new_level > level {
            for i in 0..self.res_links.len() {
                let l2i = self.res_links[i] as usize;
                if self.res_rem[l2i] * (1.0 + TIE_REL) >= self.link_remaining[l2i] {
                    return false; // a side link would newly saturate
                }
            }
        }
        // Commit: re-rate the k members, move their deltas off the side
        // links' headroom, and re-derive `l`'s own residual exactly.
        for ix in 0..self.link_list[li].len() {
            let (s, _) = self.link_list[li][ix];
            let si = s as usize;
            let r = self.slot_rate[si];
            if r < at {
                continue;
            }
            let delta = new_level - r;
            self.slot_rate[si] = new_level;
            self.changed.push(s);
            for hi in 0..self.slot_path[si].len() {
                let l2 = self.slot_path[si][hi];
                if l2 != l {
                    self.link_remaining[l2 as usize] -= delta;
                }
            }
        }
        self.link_level[li] = new_level;
        self.link_remaining[li] =
            (self.inc_capacity[li] - frozen_sum - new_level * k as f64).max(0.0);
        self.res_links.push(l);
        true
    }

    /// Expansion rounds before giving up on the warm start entirely.
    const MAX_VERIFY_ROUNDS: usize = 8;

    /// Re-solve after a batch of [`Self::add_flow`] / [`Self::remove_flow`]
    /// deltas. Only flows the perturbation can actually reach are
    /// re-frozen: each dirty link recruits the members above its own
    /// divergence level, influence then propagates solely through binding
    /// links into their bound sets, and a verification pass proves the
    /// kept rates still form the unique max-min solution — expanding the
    /// residual and re-solving when it cannot. [`Self::changed`] lists
    /// every slot whose rate was (re)written. Falls back to a full solve
    /// when the delta touches too large a fraction of the problem.
    pub fn rebalance(&mut self) -> Rebalance {
        self.changed.clear();
        self.deltas_open = false;
        // An empty-path add dirties no links but still needs its rate
        // assigned, so pending adds keep the event live.
        if self.dirty.is_empty() && self.pending_adds.is_empty() {
            return Rebalance::Noop;
        }
        self.rebalance_id += 1;
        let rid = self.rebalance_id;

        // Closed-form fast path: an event that dirtied exactly one link
        // (an incast receiver's demand reservation, a single-hop flow
        // departure) whose members are bound by that link alone re-levels
        // in O(members) with no progressive filling.
        if self.inc_ready && self.pending_adds.is_empty() && self.dirty.len() == 1 {
            let l = self.dirty[0];
            if self.try_single_bottleneck(l) {
                self.n_single_bottleneck_solves += 1;
                self.dirty_flag[l as usize] = false;
                self.dirty.clear();
                return Rebalance::SingleBottleneck;
            }
        }

        let dirty_entries: usize = self
            .dirty
            .iter()
            .map(|&l| self.link_list[l as usize].len())
            .sum();
        // Warm-starting pays off only when the dirty neighbourhood is a
        // small fraction of the whole problem; a wave arrival or an incast
        // receiver link invalidates most of it, so solve from scratch.
        let mut full = !self.inc_ready || 4 * dirty_entries > self.total_entries;

        if !full {
            self.divergence_level();
            // Seed the frontier: each dirty link recruits at its own
            // divergence level (the first level its freeze history departs
            // at); cascade links recruit their bound set.
            self.bfs_queue.clear();
            for di in 0..self.dirty.len() {
                let l = self.dirty[di];
                if !self.link_list[l as usize].is_empty() {
                    self.bfs_mark[l as usize] = rid;
                    self.bfs_queue.push((l, self.dirty_theta[di]));
                }
            }
            for pi in 0..self.pending_adds.len() {
                let s = self.pending_adds[pi];
                self.res_member[s as usize] = rid;
                self.changed.push(s);
            }
            let mut qi = 0;
            let mut rounds = 0usize;
            loop {
                // Drain the frontier, recruiting members at/above each
                // link's threshold.
                while qi < self.bfs_queue.len() {
                    let (l, thr) = self.bfs_queue[qi];
                    qi += 1;
                    let cut = thr * (1.0 - 2.0 * TIE_REL);
                    let li = l as usize;
                    for ix in 0..self.link_list[li].len() {
                        let (s, _) = self.link_list[li][ix];
                        let si = s as usize;
                        if self.res_member[si] != rid
                            && !self.slot_pending[si]
                            && self.slot_rate[si] >= cut
                        {
                            self.recruit(s);
                        }
                    }
                }
                self.res_epoch += 1;
                let epoch = self.res_epoch;
                for ci in 0..self.changed.len() {
                    self.res_state[self.changed[ci] as usize] = epoch;
                }
                self.solve_residual();
                rounds += 1;
                if self.verify_residual() {
                    break;
                }
                if rounds >= Self::MAX_VERIFY_ROUNDS {
                    full = true; // cascade would not localize; start over
                    break;
                }
                // Under-recruited: pull in the violating flows and resume
                // the BFS from their links.
                let viol = std::mem::take(&mut self.violations);
                for &s in &viol {
                    if self.res_member[s as usize] != rid {
                        self.recruit(s);
                    }
                }
                self.violations = viol;
            }
        }

        let kind = if full {
            self.res_epoch += 1;
            let epoch = self.res_epoch;
            self.changed.clear();
            for s in 0..self.slot_alive.len() {
                if self.slot_alive[s] {
                    self.res_state[s] = epoch;
                    self.res_member[s] = rid;
                    self.changed.push(s as u32);
                }
            }
            // A full solve re-derives every rate: refunding each flow's
            // converged share restores every link to raw capacity.
            self.solve_residual();
            self.n_full_solves += 1;
            Rebalance::Full
        } else {
            self.n_incremental_solves += 1;
            Rebalance::Incremental
        };
        self.inc_ready = true;

        // Dirty links whose saturation state may have moved without any
        // residual flow crossing them (pure-removal headroom refunds) are
        // still "touched" for the caller's congestion bookkeeping.
        let epoch = self.res_epoch;
        for di in 0..self.dirty.len() {
            let l = self.dirty[di];
            if self.link_mark[l as usize] != epoch {
                self.link_mark[l as usize] = epoch;
                self.res_links.push(l);
            }
        }

        for &s in &self.pending_adds {
            self.slot_pending[s as usize] = false;
        }
        self.pending_adds.clear();
        for &l in &self.dirty {
            self.dirty_flag[l as usize] = false;
        }
        self.dirty.clear();
        kind
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
mod tests {
    use super::*;

    const G: f64 = 1e9;

    #[test]
    fn single_flow_gets_line_rate() {
        let caps = [100.0 * G, 100.0 * G];
        let path = [0u32, 1];
        let flows = [Demand {
            cap: f64::INFINITY,
            path: &path,
        }];
        let r = water_fill(&caps, &flows);
        assert!((r[0] - 100.0 * G).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let caps = [100.0 * G, 100.0 * G, 100.0 * G];
        let (pa, pb) = ([0u32, 2], [1u32, 2]);
        let flows = [
            Demand {
                cap: f64::INFINITY,
                path: &pa,
            },
            Demand {
                cap: f64::INFINITY,
                path: &pb,
            },
        ];
        let r = water_fill(&caps, &flows);
        assert!((r[0] - 50.0 * G).abs() < 1.0, "{r:?}");
        assert!((r[1] - 50.0 * G).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn capped_flow_releases_share() {
        // Two flows on one 100G link; one capped at 20G → other gets 80G.
        let caps = [100.0 * G];
        let p = [0u32];
        let flows = [
            Demand {
                cap: 20.0 * G,
                path: &p,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p,
            },
        ];
        let r = water_fill(&caps, &flows);
        assert!((r[0] - 20.0 * G).abs() < 1.0, "{r:?}");
        assert!((r[1] - 80.0 * G).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn classic_maxmin_example() {
        // Three links a(10) b(10) c(4); flows: f0 over a+c, f1 over b+c,
        // f2 over a, f3 over b. Max-min: f0=f1=2 (c saturates), f2=f3=8.
        let caps = [10.0, 10.0, 4.0];
        let (p0, p1, p2, p3) = ([0u32, 2], [1u32, 2], [0u32], [1u32]);
        let flows = [
            Demand {
                cap: f64::INFINITY,
                path: &p0,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p1,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p2,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p3,
            },
        ];
        let r = water_fill(&caps, &flows);
        assert!(
            (r[0] - 2.0).abs() < 1e-9 && (r[1] - 2.0).abs() < 1e-9,
            "{r:?}"
        );
        assert!(
            (r[2] - 8.0).abs() < 1e-9 && (r[3] - 8.0).abs() < 1e-9,
            "{r:?}"
        );
        assert!(worst_oversubscription(&caps, &flows, &r) < 1e-9);
        assert_eq!(find_non_pareto_flow(&caps, &flows, &r, 1e-9), None);
    }

    #[test]
    fn incast_divides_receiver_link() {
        let n = 64usize;
        let caps: Vec<f64> = (0..n + 1).map(|_| 100.0 * G).collect();
        let paths: Vec<[u32; 2]> = (0..n).map(|i| [i as u32, n as u32]).collect();
        let flows: Vec<Demand<'_>> = paths
            .iter()
            .map(|p| Demand {
                cap: f64::INFINITY,
                path: p,
            })
            .collect();
        let r = water_fill(&caps, &flows);
        for &x in &r {
            assert!((x - 100.0 * G / n as f64).abs() < 1.0, "{x}");
        }
    }

    #[test]
    fn cascade_of_bottlenecks_resolves_in_order() {
        // Chain where freeing one bottleneck reveals the next: link 0 has
        // 4 flows (25 each), link 1 has flows {3} plus two private flows
        // at higher shares.
        let caps = [100.0, 90.0];
        let (p_a, p_b, p_ab) = ([0u32], [1u32], [0u32, 1]);
        let flows = [
            Demand {
                cap: f64::INFINITY,
                path: &p_a,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p_a,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p_a,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p_ab,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p_b,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p_b,
            },
        ];
        let r = water_fill(&caps, &flows);
        // Link 0 saturates at 25 for its four flows; link 1 then has
        // 90 − 25 = 65 left for two flows → 32.5 each.
        for i in 0..4 {
            assert!((r[i] - 25.0).abs() < 1e-9, "{r:?}");
        }
        assert!((r[4] - 32.5).abs() < 1e-9, "{r:?}");
        assert!((r[5] - 32.5).abs() < 1e-9, "{r:?}");
        assert!(worst_oversubscription(&caps, &flows, &r) < 1e-9);
        assert_eq!(find_non_pareto_flow(&caps, &flows, &r, 1e-9), None);
    }

    #[test]
    fn filler_reuse_is_consistent() {
        let caps = [10.0, 10.0, 4.0];
        let mut wf = WaterFiller::new(3);
        let mut rates = Vec::new();
        // First run with one shape…
        let p_all = [0u32, 1, 2];
        let flows = [Demand {
            cap: f64::INFINITY,
            path: &p_all,
        }];
        wf.allocate(&caps, &flows, &mut rates);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        // …then a different shape reusing the scratch state.
        let (p0, p1) = ([0u32], [0u32, 1]);
        let flows = [
            Demand {
                cap: f64::INFINITY,
                path: &p0,
            },
            Demand {
                cap: 3.0,
                path: &p1,
            },
        ];
        wf.allocate(&caps, &flows, &mut rates);
        assert!((rates[1] - 3.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[0] - 7.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(water_fill(&[1.0 * G], &[]).is_empty());
        let flows = [Demand {
            cap: 5.0 * G,
            path: &[][..],
        }];
        let r = water_fill(&[1.0 * G], &flows);
        assert!(
            (r[0] - 5.0 * G).abs() < 1.0,
            "empty-path flow takes its cap: {r:?}"
        );
    }

    #[test]
    fn detectors_flag_bad_allocations() {
        let caps = [10.0];
        let p = [0u32];
        let flows = [
            Demand {
                cap: f64::INFINITY,
                path: &p,
            },
            Demand {
                cap: f64::INFINITY,
                path: &p,
            },
        ];
        // Oversubscribed by 50%.
        assert!(worst_oversubscription(&caps, &flows, &[7.5, 7.5]) > 0.49);
        // Feasible but not Pareto-optimal (link only half full).
        assert_eq!(
            find_non_pareto_flow(&caps, &flows, &[2.5, 2.5], 1e-9),
            Some(0)
        );
    }

    /// Compare every alive incremental rate against a from-scratch
    /// `allocate` oracle over the same flow set.
    fn assert_matches_oracle(wf: &WaterFiller, caps: &[f64], alive: &[(u32, Vec<u32>)], ctx: &str) {
        let demands: Vec<Demand<'_>> = alive
            .iter()
            .map(|(_, p)| Demand {
                cap: f64::INFINITY,
                path: p,
            })
            .collect();
        let oracle = water_fill(caps, &demands);
        for ((slot, _), &want) in alive.iter().zip(&oracle) {
            let got = wf.rate(*slot);
            let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-9,
                "{ctx}: slot {slot} rate {got} vs oracle {want} (rel {rel:.3e})"
            );
        }
        // The incremental solution must be feasible and Pareto on its own.
        let rates: Vec<f64> = alive.iter().map(|(s, _)| wf.rate(*s)).collect();
        assert!(
            worst_oversubscription(caps, &demands, &rates) < 1e-6,
            "{ctx}: oversubscribed"
        );
        assert_eq!(
            find_non_pareto_flow(caps, &demands, &rates, 1e-6),
            None,
            "{ctx}: not Pareto-optimal"
        );
    }

    #[test]
    fn incremental_single_add_and_remove_match_oracle() {
        let caps = [10.0, 10.0, 4.0];
        let mut wf = WaterFiller::new(3);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        for path in [vec![0u32, 2], vec![1u32, 2], vec![0u32], vec![1u32]] {
            let s = wf.add_flow(&path);
            alive.push((s, path));
            wf.rebalance();
            assert_matches_oracle(&wf, &caps, &alive, "add");
        }
        // Classic max-min example state: f0=f1=2, f2=f3=8.
        assert!((wf.rate(alive[0].0) - 2.0).abs() < 1e-9);
        assert!((wf.rate(alive[2].0) - 8.0).abs() < 1e-9);
        // Remove the shared-bottleneck flow f0: f1 takes all of link 2.
        let (s0, _) = alive.remove(0);
        wf.remove_flow(s0);
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "remove");
        assert!((wf.rate(alive[0].0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_pure_removal_without_binding_changes_nothing() {
        // Two flows on disjoint halves of a 2-link net; removing one must
        // not touch the other (empty changed set).
        let caps = [10.0, 10.0];
        let mut wf = WaterFiller::new(2);
        wf.begin_incremental(&caps);
        let a = wf.add_flow(&[0]);
        let b = wf.add_flow(&[1]);
        wf.rebalance();
        wf.remove_flow(a);
        let kind = wf.rebalance();
        assert_eq!(kind, Rebalance::Incremental);
        assert!(wf.changed().is_empty(), "{:?}", wf.changed());
        assert!((wf.rate(b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_removal_of_bottlenecked_peer_raises_share() {
        // The case the divergence cap exists for: the departing flow's
        // link was binding, so its peers must be re-frozen even though the
        // link's *new* saturation level sits above their old rates.
        let caps = [9.0];
        let mut wf = WaterFiller::new(1);
        wf.begin_incremental(&caps);
        let s: Vec<u32> = (0..3).map(|_| wf.add_flow(&[0])).collect();
        wf.rebalance();
        for &x in &s {
            assert!((wf.rate(x) - 3.0).abs() < 1e-9);
        }
        wf.remove_flow(s[0]);
        // A departure dirtying a single binding link is exactly the
        // closed-form case: no progressive filling runs at all.
        assert_eq!(wf.rebalance(), Rebalance::SingleBottleneck);
        assert!((wf.rate(s[1]) - 4.5).abs() < 1e-9, "{}", wf.rate(s[1]));
        assert!((wf.rate(s[2]) - 4.5).abs() < 1e-9);
        assert_eq!(wf.single_bottleneck_solves(), 1);
    }

    #[test]
    fn set_capacity_reservation_takes_single_bottleneck_path() {
        // Incast: 8 sources through one receiver link (id 8). A foreground
        // demand reservation shrinks the receiver link; the re-level is
        // the closed form, both down and back up.
        let n = 8usize;
        let caps: Vec<f64> = vec![100.0; n + 1];
        let mut wf = WaterFiller::new(n + 1);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        for i in 0..n {
            let p = vec![i as u32, n as u32];
            let s = wf.add_flow(&p);
            alive.push((s, p));
        }
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "initial");
        let mut caps2 = caps.clone();
        caps2[n] = 40.0;
        wf.set_capacity(n as u32, 40.0);
        assert_eq!(wf.rebalance(), Rebalance::SingleBottleneck);
        assert_matches_oracle(&wf, &caps2, &alive, "reserve");
        assert_eq!(wf.changed().len(), n);
        assert!(wf.touched_links().contains(&(n as u32)));
        // Releasing part of the reservation re-levels upward the same way
        // (the per-source side links keep ample headroom).
        caps2[n] = 80.0;
        wf.set_capacity(n as u32, 80.0);
        assert_eq!(wf.rebalance(), Rebalance::SingleBottleneck);
        assert_matches_oracle(&wf, &caps2, &alive, "release");
        assert_eq!(wf.single_bottleneck_solves(), 2);
        for (s, _) in &alive {
            assert!((wf.rate(*s) - 10.0).abs() < 1e-9);
        }
        // No-op capacity write: nothing dirtied, nothing solved.
        wf.set_capacity(n as u32, 80.0);
        assert_eq!(wf.rebalance(), Rebalance::Noop);
    }

    #[test]
    fn set_capacity_falls_back_when_freeze_order_changes() {
        // Sources 0 (5 Gb/s), 1, 2 through receiver link 3: flow 0 is
        // frozen below the receiver level by its own narrow source link.
        let caps = [5.0, 100.0, 100.0, 30.0];
        let mut wf = WaterFiller::new(4);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        for i in 0..3u32 {
            let p = vec![i, 3];
            let s = wf.add_flow(&p);
            alive.push((s, p));
        }
        wf.rebalance();
        assert!((wf.rate(alive[0].0) - 5.0).abs() < 1e-9);
        assert!((wf.rate(alive[1].0) - 12.5).abs() < 1e-9);
        // A cut that keeps the new level above the frozen flow's rate
        // preserves the freeze order: closed form applies.
        let mut caps2 = caps.to_vec();
        caps2[3] = 21.0;
        wf.set_capacity(3, 21.0);
        assert_eq!(wf.rebalance(), Rebalance::SingleBottleneck);
        assert_matches_oracle(&wf, &caps2, &alive, "valid cut");
        assert!((wf.rate(alive[1].0) - 8.0).abs() < 1e-9);
        // A cut below the frozen rate reorders the freeze: general solve.
        caps2[3] = 12.0;
        wf.set_capacity(3, 12.0);
        assert_ne!(wf.rebalance(), Rebalance::SingleBottleneck);
        assert_matches_oracle(&wf, &caps2, &alive, "deep cut");
        assert!((wf.rate(alive[0].0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_raise_beyond_side_headroom_falls_back() {
        // Flow a crosses links {0, 2}, flow b crosses {0, 1}; link 1 binds
        // b, link 2 binds a, link 0 binds nobody. Raising link 2 far above
        // link 0's headroom would make link 0 binding — not expressible in
        // the closed form, so the general solve must run.
        let caps = [100.0, 4.0, 10.0];
        let mut wf = WaterFiller::new(3);
        wf.begin_incremental(&caps);
        let a = wf.add_flow(&[0, 2]);
        let b = wf.add_flow(&[0, 1]);
        wf.rebalance();
        assert!((wf.rate(a) - 10.0).abs() < 1e-9);
        assert!((wf.rate(b) - 4.0).abs() < 1e-9);
        wf.set_capacity(2, 200.0);
        assert_ne!(wf.rebalance(), Rebalance::SingleBottleneck);
        let caps2 = [100.0, 4.0, 200.0];
        let alive = vec![(a, vec![0u32, 2]), (b, vec![0u32, 1])];
        assert_matches_oracle(&wf, &caps2, &alive, "raise");
        assert!((wf.rate(a) - 96.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_batches_and_slot_reuse_match_oracle() {
        let caps = [8.0, 12.0, 20.0, 5.0];
        let mut wf = WaterFiller::new(4);
        wf.begin_incremental(&caps);
        let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
        // Batch add (forces a full solve on first rebalance).
        for path in [vec![0u32, 2], vec![1u32, 2], vec![2u32, 3], vec![3u32]] {
            let s = wf.add_flow(&path);
            alive.push((s, path));
        }
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "batch add");
        // Same-event add + remove, exercising slot reuse.
        let (dead, _) = alive.remove(1);
        wf.remove_flow(dead);
        let p = vec![0u32, 3];
        let s = wf.add_flow(&p);
        assert_eq!(s, dead, "freed slot is reused");
        alive.push((s, p));
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "add+remove batch");
        // Add-then-remove before any rebalance is a clean no-op flow.
        let ghost = wf.add_flow(&[1]);
        wf.remove_flow(ghost);
        wf.rebalance();
        assert_matches_oracle(&wf, &caps, &alive, "ghost flow");
    }

    #[test]
    fn incremental_empty_path_flow_gets_uncapped_rate() {
        // Degenerate but defensive, matching the oracle's uncapped
        // fallback: an empty-path flow dirties no links yet must still be
        // rated by the next rebalance (not left pending at 0).
        let mut wf = WaterFiller::new(2);
        wf.begin_incremental(&[10.0, 10.0]);
        let a = wf.add_flow(&[]);
        assert_ne!(wf.rebalance(), Rebalance::Noop);
        assert_eq!(wf.rate(a), f64::MAX);
        assert_eq!(wf.rebalance(), Rebalance::Noop);
        // begin_incremental starts a fresh session, counters included.
        wf.begin_incremental(&[10.0, 10.0]);
        assert_eq!(wf.solve_stats(), (0, 0));
    }

    /// The tentpole property test: random arrival/departure sequences over
    /// random link sets, every rebalance pinned to the from-scratch oracle
    /// within 1e-9 relative rate error (plus feasibility + Pareto checks).
    #[test]
    fn incremental_matches_oracle_over_random_sequences() {
        let mut seed = 0xD1CE_F00D_5EED_1234u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut n_inc, mut n_full, mut n_sb) = (0u64, 0u64, 0u64);
        let (mut n_fleet_inc, mut n_fleet_full) = (0u64, 0u64);
        for trial in 0..16 {
            // The last four trials have the hybrid driver's shape: a link
            // set wide enough that a dozen dirty links stay under the
            // full-solve threshold, a standing population (thin in the
            // last trial, so the same batches trip the threshold there),
            // and events that re-set several capacities together with
            // adds/removes.
            let fleet = trial >= 12;
            let nl = if fleet {
                160 + (next() % 64) as usize
            } else {
                8 + (next() % 24) as usize
            };
            // A mix of equal capacities (tie-heavy, like uniform fabrics)
            // and random ones (many distinct bottleneck levels).
            let mut caps: Vec<f64> = (0..nl)
                .map(|_| {
                    if trial % 2 == 0 {
                        100.0
                    } else {
                        (1 + next() % 100) as f64
                    }
                })
                .collect();
            let mut wf = WaterFiller::new(nl);
            wf.begin_incremental(&caps);
            let mut alive: Vec<(u32, Vec<u32>)> = Vec::new();
            for event in 0..120 {
                let reservations = fleet && event > 0 && next() % 2 == 0;
                if reservations {
                    for _ in 0..2 + next() % 11 {
                        let l = (next() % nl as u64) as usize;
                        caps[l] = (1 + next() % 100) as f64;
                        wf.set_capacity(l as u32, caps[l]);
                    }
                }
                if !fleet && next() % 8 == 0 {
                    // Capacity perturbation (a reservation push): a lone
                    // single-link delta, the fast path's natural shape.
                    let l = (next() % nl as u64) as usize;
                    caps[l] = (1 + next() % 100) as f64;
                    wf.set_capacity(l as u32, caps[l]);
                } else {
                    // Batched events now and then; removals at ~40%.
                    let batch = if fleet && event == 0 {
                        if trial == 15 {
                            12
                        } else {
                            200
                        }
                    } else {
                        1 + (next() % 3) as usize
                    };
                    for _ in 0..batch {
                        if !alive.is_empty() && next() % 5 < 2 {
                            let ix = (next() % alive.len() as u64) as usize;
                            let (slot, _) = alive.swap_remove(ix);
                            wf.remove_flow(slot);
                        } else {
                            let len = 1 + (next() % 4) as usize;
                            let mut p: Vec<u32> =
                                (0..len).map(|_| (next() % nl as u64) as u32).collect();
                            p.sort_unstable();
                            p.dedup();
                            let s = wf.add_flow(&p);
                            alive.push((s, p));
                        }
                    }
                }
                let kind = wf.rebalance();
                if reservations {
                    n_fleet_inc += (kind == Rebalance::Incremental) as u64;
                    n_fleet_full += (kind == Rebalance::Full) as u64;
                }
                assert_matches_oracle(&wf, &caps, &alive, &format!("trial {trial} ev {event}"));
            }
            let (f, i) = wf.solve_stats();
            n_full += f;
            n_inc += i;
            n_sb += wf.single_bottleneck_solves();
        }
        // The sequences must exercise every path, or the test is vacuous.
        assert!(n_inc > 100, "incremental path barely exercised: {n_inc}");
        assert!(n_full > 10, "full fallback never exercised: {n_full}");
        assert!(n_sb > 0, "single-bottleneck path never exercised: {n_sb}");
        // Multi-link capacity batches must reach the warm start, not only
        // the full fallback.
        assert!(
            n_fleet_inc > 100 && n_fleet_full > 0,
            "capacity batches: {n_fleet_inc} warm starts, {n_fleet_full} full solves"
        );
    }

    #[test]
    fn random_demands_stay_feasible_and_pareto() {
        // Deterministic pseudo-random stress over a 3-tier-ish link set.
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..50 {
            let nl = 20 + (next() % 30) as usize;
            let caps: Vec<f64> = (0..nl).map(|_| (1 + next() % 100) as f64).collect();
            let nf = 1 + (next() % 200) as usize;
            let paths: Vec<Vec<u32>> = (0..nf)
                .map(|_| {
                    let len = 1 + (next() % 5) as usize;
                    let mut p: Vec<u32> = (0..len).map(|_| (next() % nl as u64) as u32).collect();
                    p.sort_unstable();
                    p.dedup();
                    p
                })
                .collect();
            let flows: Vec<Demand<'_>> = paths
                .iter()
                .map(|p| {
                    let cap = if next() % 3 == 0 {
                        (1 + next() % 50) as f64
                    } else {
                        f64::INFINITY
                    };
                    Demand { cap, path: p }
                })
                .collect();
            let r = water_fill(&caps, &flows);
            assert!(
                worst_oversubscription(&caps, &flows, &r) < 1e-6,
                "trial {trial} oversubscribed"
            );
            assert_eq!(
                find_non_pareto_flow(&caps, &flows, &r, 1e-6),
                None,
                "trial {trial} not Pareto-optimal"
            );
        }
    }
}
