//! Incremental mode: the persisted solution and its warm-started
//! re-solve (see the parent module's docs).

use super::{WaterFiller, TIE_REL};

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

impl WaterFiller {
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
