//! Incremental mode: the persisted solution and its warm-started
//! re-solve (see the parent module's docs).

use super::{LinkScratch, LinkState, SlotSolve, WaterFiller, TIE_REL};

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

/// Hops per slot in the flat path tables until a longer path arrives
/// (a fat-tree route is at most six links).
const MIN_HOP_STRIDE: usize = 8;

/// `1/u` from the reciprocal table (division fallback above its range).
#[inline]
fn recip(inv: &[f64], u: u32) -> f64 {
    match inv.get(u as usize) {
        Some(&r) => r,
        None => 1.0 / u as f64,
    }
}

impl WaterFiller {
    /// Enter (or reset) incremental mode over fixed link `capacity`.
    /// Clears any previously persisted solution and slot state.
    pub fn begin_incremental(&mut self, capacity: &[f64]) {
        assert_eq!(capacity.len(), self.n_links, "capacity array size mismatch");
        self.inc_capacity.clear();
        self.inc_capacity.extend_from_slice(capacity);
        self.inc_ready = false;
        self.hop_link.clear();
        self.hop_pos.clear();
        self.hop_stride = self.hop_stride.max(MIN_HOP_STRIDE);
        self.slots.clear();
        self.free_slots.clear();
        self.n_alive = 0;
        self.total_entries = 0;
        self.link_list.clear();
        self.link_list.resize(self.n_links, Vec::new());
        self.link_state.clear();
        self.link_state.resize(self.n_links, LinkState::default());
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
        for k in &mut self.link {
            k.mark = 0;
        }
        self.bfs_mark.clear();
        self.bfs_mark.resize(self.n_links, 0);
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
            self.link_state[li].remaining += cap - old;
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
        if path.len() > self.hop_stride {
            self.widen_hops(path.len());
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(SlotSolve::default());
                self.hop_link.resize(self.slots.len() * self.hop_stride, 0);
                self.hop_pos.resize(self.slots.len() * self.hop_stride, 0);
                s
            }
        };
        let si = slot as usize;
        let base = si * self.hop_stride;
        for (hop, &l) in path.iter().enumerate() {
            let li = l as usize;
            if self.link_list[li].is_empty() {
                // Link (re)activates: no converged history applies to it.
                self.link_state[li].remaining = self.inc_capacity[li];
                self.link_state[li].level = f64::INFINITY;
                self.inc_active_pos[li] = self.inc_active.len() as u32;
                self.inc_active.push(l);
                self.activated.push(l);
            }
            self.hop_pos[base + hop] = self.link_list[li].len() as u32;
            self.link_list[li].push((slot, hop as u8));
            self.hop_link[base + hop] = l;
            self.mark_dirty(l);
        }
        self.slots[si] = SlotSolve {
            rate: 0.0,
            alive: true,
            pending: true,
            hops: path.len() as u16,
            ..self.slots[si]
        };
        self.pending_adds.push(slot);
        self.n_alive += 1;
        self.total_entries += path.len();
        slot
    }

    /// Retire the flow in `slot`. Its capacity share is refunded to its
    /// links; the next [`Self::rebalance`] redistributes it.
    pub fn remove_flow(&mut self, slot: u32) {
        let si = slot as usize;
        assert!(self.slots[si].alive, "remove_flow on a dead slot");
        self.open_deltas();
        let SlotSolve { rate, hops, .. } = self.slots[si];
        let base = si * self.hop_stride;
        for hop in base..base + hops as usize {
            let (l, pos) = (self.hop_link[hop], self.hop_pos[hop]);
            let li = l as usize;
            let list = &mut self.link_list[li];
            list.swap_remove(pos as usize);
            if (pos as usize) < list.len() {
                let (moved_slot, moved_hop) = list[pos as usize];
                self.hop_pos[moved_slot as usize * self.hop_stride + moved_hop as usize] = pos;
            }
            self.link_state[li].remaining += rate;
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
        self.total_entries -= hops as usize;
        if self.slots[si].pending {
            let p = self.pending_adds.iter().position(|&s| s == slot).unwrap();
            self.pending_adds.swap_remove(p);
        }
        self.slots[si] = SlotSolve {
            member: self.slots[si].member,
            ..SlotSolve::default()
        };
        self.free_slots.push(slot);
        self.n_alive -= 1;
    }

    /// Converged rate of the flow in `slot` (bits/s).
    #[inline]
    pub fn rate(&self, slot: u32) -> f64 {
        self.slots[slot as usize].rate
    }

    /// The path registered for `slot`.
    #[inline]
    pub fn path(&self, slot: u32) -> &[u32] {
        let base = slot as usize * self.hop_stride;
        &self.hop_link[base..base + self.slots[slot as usize].hops as usize]
    }

    /// Re-lay the per-slot hop tables at a wider stride: a path longer
    /// than any seen so far arrived.
    fn widen_hops(&mut self, longest: usize) {
        let (old, new) = (self.hop_stride, longest.next_power_of_two());
        for table in [&mut self.hop_link, &mut self.hop_pos] {
            let mut wide = vec![0; table.len() / old * new];
            for (from, to) in table.chunks_exact(old).zip(wide.chunks_exact_mut(new)) {
                to[..old].copy_from_slice(from);
            }
            *table = wide;
        }
        self.hop_stride = new;
    }

    /// Slots whose rate was written by the last [`Self::rebalance`].
    #[inline]
    pub fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// Converged residual capacity of link `l` in incremental mode
    /// (bits/s); near zero means the link is a saturated bottleneck.
    #[inline]
    pub fn link_residual(&self, l: u32) -> f64 {
        self.link_state[l as usize].remaining
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
                if self.slots[s as usize].pending {
                    pending_users += 1; // freezes only in the residual
                } else {
                    rates.push(self.slots[s as usize].rate);
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
            theta_l = theta_l.min(self.link_state[l].level);
            self.dirty_theta[di] = theta_l;
            theta = theta.min(theta_l);
        }
        self.rate_scratch = rates;
        theta
    }

    /// Solve the residual subproblem over the slots currently collected in
    /// `self.changed`. Link headroom is seeded from the persisted solution
    /// plus the residual flows' refunded converged rates, so prefix flows
    /// alone define the starting state; the solve then runs the same
    /// progressive filling as the one-shot oracle, over dense per-event
    /// CSR scratch. Updates rates, link residuals and binding levels in
    /// place.
    ///
    /// A link exactly one residual flow crosses saturates at its headroom
    /// until that flow freezes, whatever the water level: it is a rate cap
    /// on the flow, not a competitor. Such links stay out of the link
    /// heap; each flow's least one-user headroom goes into a cap heap
    /// instead, and a binding cap writes its link's level as the link
    /// would have.
    fn solve_residual(&mut self) {
        let (epoch, rid, stride) = (self.res_epoch, self.rebalance_id, self.hop_stride);
        // Borrow every array once: the loops below index plain slices
        // instead of re-deriving each `Vec` through `self` per access.
        let Self {
            changed,
            hop_link,
            slots,
            link,
            link_state,
            res_links,
            res_path,
            res_off,
            link_flows,
            frozen,
            heap,
            caps,
            one_user,
            cap_of,
            inv,
            ..
        } = self;
        let (changed, slots, link) = (
            changed.as_slice(),
            slots.as_mut_slice(),
            link.as_mut_slice(),
        );
        let (link_state, inv) = (link_state.as_mut_slice(), inv.as_slice());
        let m = changed.len();
        res_links.clear();
        res_path.clear();
        res_off.clear();
        res_off.push(0);
        for &s in changed {
            let SlotSolve { rate, hops, .. } = slots[s as usize];
            let path = &hop_link[s as usize * stride..][..hops as usize];
            for &l in path {
                let li = l as usize;
                let k = &mut link[li];
                if k.mark != epoch {
                    k.mark = epoch;
                    let p = &mut link_state[li];
                    k.rem = p.remaining;
                    k.users = 0;
                    res_links.push(l);
                    if p.old_mark != rid {
                        // First touch this rebalance: snapshot the binding
                        // level the verification pass compares against.
                        p.old_mark = rid;
                        p.old_level = p.level;
                    }
                }
                // Refund the residual flow's converged share (0 for adds):
                // prefix flows alone define the starting headroom.
                k.rem += rate;
                k.users += 1;
            }
            res_path.extend_from_slice(path);
            res_off.push(res_path.len() as u32);
        }
        let (res_links, res_path, res_off) = (
            res_links.as_slice(),
            res_path.as_slice(),
            res_off.as_slice(),
        );

        // Residual CSR over the shared scratch (`count`/`cursor`/
        // `link_flows` are rebuilt from scratch by every solve, one-shot
        // or incremental, so sharing them is safe).
        link_flows.clear();
        link_flows.resize(res_path.len(), 0);
        let link_flows = link_flows.as_mut_slice();
        let mut at = 0u32;
        for &l in res_links {
            let k = &mut link[l as usize];
            k.count = k.users;
            k.cursor = at;
            at += k.users;
        }
        for ci in 0..m {
            for &l in &res_path[res_off[ci] as usize..res_off[ci + 1] as usize] {
                let k = &mut link[l as usize];
                link_flows[k.cursor as usize] = ci as u32;
                k.cursor += 1;
            }
        }
        // Each cursor now points one past its link's residual slice.

        frozen.clear();
        frozen.resize(m, false);
        let frozen = frozen.as_mut_slice();
        // Shared links seed the link heap; each one-user link is listed
        // with its flow (its slice's only entry). Both are written for
        // every link and kept by a flag, so the mix costs no branch.
        one_user.clear();
        one_user.resize(res_links.len(), (0, 0.0));
        let mut n_one = 0;
        heap.refill(res_links.len(), |i| {
            let l = res_links[i];
            let k = &link[l as usize];
            link_state[l as usize].level = f64::INFINITY;
            one_user[n_one] = (link_flows[k.cursor as usize - 1], k.rem);
            n_one += (k.users == 1) as usize;
            ((k.rem.max(0.0) * recip(inv, k.users), l), k.users > 1)
        });
        // A flow's cap: the least headroom among its one-user links.
        cap_of.clear();
        cap_of.resize(m, f64::INFINITY);
        for &(f, rem) in &one_user[..n_one] {
            let cap = &mut cap_of[f as usize];
            *cap = if rem < *cap { rem } else { *cap };
        }
        caps.refill(m, |ci| {
            let cap = cap_of[ci];
            ((cap.max(0.0), ci as u32), cap < f64::INFINITY)
        });

        let mut unfrozen = m;

        // Current saturation level (`∞` once all the link's flows froze).
        let fill = |k: &LinkScratch| {
            if k.users == 0 {
                f64::INFINITY
            } else {
                k.rem.max(0.0) * recip(inv, k.users)
            }
        };

        macro_rules! freeze_flow {
            ($f:expr, $level:expr) => {{
                let f = $f as usize;
                if !frozen[f] {
                    frozen[f] = true;
                    slots[changed[f] as usize].rate = $level;
                    unfrozen -= 1;
                    for &l2 in &res_path[res_off[f] as usize..res_off[f + 1] as usize] {
                        link[l2 as usize].rem -= $level;
                        link[l2 as usize].users -= 1;
                    }
                }
            }};
        }

        macro_rules! freeze_link {
            ($l:expr, $level:expr) => {{
                let l = $l as usize;
                link_state[l].level = $level;
                let (begin, end) = (link[l].cursor - link[l].count, link[l].cursor);
                for &f in &link_flows[begin as usize..end as usize] {
                    freeze_flow!(f, $level);
                }
            }};
        }

        // A cap `key` binds only if its flow is still unfrozen. The first
        // one-user link on the path with that headroom then records the
        // level, exactly as it would have popped from the link heap (an
        // unfrozen flow's one-user links still hold their seeded headroom).
        macro_rules! freeze_cap {
            ($ci:expr, $key:expr, $level:expr) => {{
                let ci = $ci as usize;
                if !frozen[ci] {
                    let path = &res_path[res_off[ci] as usize..res_off[ci + 1] as usize];
                    let l = path
                        .iter()
                        .find(|&&l| {
                            let k = &link[l as usize];
                            k.count == 1 && k.rem.max(0.0) == $key
                        })
                        .expect("a cap is one of its flow's link headrooms");
                    link_state[*l as usize].level = $level;
                    freeze_flow!(ci, $level);
                }
            }};
        }

        while unfrozen > 0 {
            // The next round's level: the least link level, or the least
            // cap of an unfrozen flow when that is strictly lower. Link
            // keys are lower bounds on link levels, so a link whose key
            // exceeds the top cap is not popped, and a frozen flow's cap
            // is popped only when it would otherwise win.
            let mut min_link: Option<(f64, u32)> = None;
            let bound = loop {
                let cap = caps.first().map_or(f64::INFINITY, |&(c, _)| c);
                if min_link.is_none() {
                    while let Some(&(key, l)) = heap.first() {
                        if key > cap {
                            break;
                        }
                        heap.pop();
                        let fresh = fill(&link[l as usize]);
                        if fresh.is_infinite() {
                            continue;
                        }
                        if fresh <= key * (1.0 + TIE_REL)
                            || heap.first().is_none_or(|&(next, _)| fresh <= next)
                        {
                            min_link = Some((fresh, l));
                            break;
                        }
                        heap.push(fresh, l);
                    }
                }
                match (min_link, caps.first()) {
                    (Some((level, l)), _) if level <= cap => {
                        freeze_link!(l, level);
                        break Some(level);
                    }
                    (_, Some(&(c, ci))) => {
                        caps.pop();
                        if frozen[ci as usize] {
                            continue;
                        }
                        if let Some((level, l)) = min_link {
                            heap.push(level, l);
                        }
                        freeze_cap!(ci, c, c);
                        break Some(c);
                    }
                    (_, None) => break None,
                }
            };
            match bound {
                Some(level) => {
                    // Drain every link and cap tied with the round's level.
                    let tie = level * (1.0 + TIE_REL) + 1e-30;
                    while let Some(&(key, l2)) = heap.first() {
                        if key > tie {
                            break;
                        }
                        heap.pop();
                        let fresh = fill(&link[l2 as usize]);
                        if fresh.is_infinite() {
                            continue;
                        }
                        if fresh <= tie {
                            freeze_link!(l2, level);
                        } else {
                            heap.push(fresh, l2);
                        }
                    }
                    while let Some(&(c, ci)) = caps.first() {
                        if c > tie {
                            break;
                        }
                        caps.pop();
                        freeze_cap!(ci, c, level);
                    }
                }
                None => {
                    // Only link-less (empty-path) flows remain; match the
                    // one-shot oracle's uncapped fallback.
                    for f in 0..m {
                        if !frozen[f] {
                            frozen[f] = true;
                            slots[changed[f] as usize].rate = f64::MAX;
                            unfrozen -= 1;
                        }
                    }
                }
            }
        }

        // Persist the converged link state for the next warm start.
        for &l in res_links {
            link_state[l as usize].remaining = link[l as usize].rem;
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
            let new_l = self.link_state[l].level;
            let old_l = self.link_state[l].old_level;
            if new_l.is_infinite() && old_l.is_infinite() {
                continue;
            }
            let rose = old_l.is_finite() && new_l > old_l * (1.0 + TIE_REL);
            for ix in 0..self.link_list[l].len() {
                let (s, _) = self.link_list[l][ix];
                let si = s as usize;
                if self.slots[si].member == rid {
                    continue; // re-solved already
                }
                let r = self.slots[si].rate;
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
        self.slots[si].member = self.rebalance_id;
        self.changed.push(s);
        let base = si * self.hop_stride;
        for hi in base..base + self.slots[si].hops as usize {
            let l = self.hop_link[hi];
            let lvl = self.link_state[l as usize].level;
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
        let level = self.link_state[li].level;
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
            let r = self.slots[s as usize].rate;
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
        // the per-link rate delta (the scratch's `rem`/`mark` double as the
        // event-scoped accumulator; any fallback path re-derives them).
        self.res_epoch += 1;
        let epoch = self.res_epoch;
        self.res_links.clear();
        for ix in 0..self.link_list[li].len() {
            let (s, _) = self.link_list[li][ix];
            let si = s as usize;
            let r = self.slots[si].rate;
            if r < at {
                continue;
            }
            let base = si * self.hop_stride;
            for hi in base..base + self.slots[si].hops as usize {
                let l2 = self.hop_link[hi];
                if l2 == l {
                    continue;
                }
                let l2i = l2 as usize;
                if self.link_state[l2i].level.is_finite() {
                    return false; // a second binding link: cascade risk
                }
                if self.link[l2i].mark != epoch {
                    self.link[l2i].mark = epoch;
                    self.link[l2i].rem = 0.0;
                    self.res_links.push(l2);
                }
                self.link[l2i].rem += new_level - r;
            }
        }
        if new_level > level {
            for i in 0..self.res_links.len() {
                let l2i = self.res_links[i] as usize;
                if self.link[l2i].rem * (1.0 + TIE_REL) >= self.link_state[l2i].remaining {
                    return false; // a side link would newly saturate
                }
            }
        }
        // Commit: re-rate the k members, move their deltas off the side
        // links' headroom, and re-derive `l`'s own residual exactly.
        for ix in 0..self.link_list[li].len() {
            let (s, _) = self.link_list[li][ix];
            let si = s as usize;
            let r = self.slots[si].rate;
            if r < at {
                continue;
            }
            let delta = new_level - r;
            self.slots[si].rate = new_level;
            self.changed.push(s);
            let base = si * self.hop_stride;
            for hi in base..base + self.slots[si].hops as usize {
                let l2 = self.hop_link[hi];
                if l2 != l {
                    self.link_state[l2 as usize].remaining -= delta;
                }
            }
        }
        self.link_state[li].level = new_level;
        self.link_state[li].remaining =
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
                self.slots[s as usize].member = rid;
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
                        if self.slots[si].member != rid
                            && !self.slots[si].pending
                            && self.slots[si].rate >= cut
                        {
                            self.recruit(s);
                        }
                    }
                }
                self.res_epoch += 1;
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
                    if self.slots[s as usize].member != rid {
                        self.recruit(s);
                    }
                }
                self.violations = viol;
            }
        }

        let kind = if full {
            self.res_epoch += 1;
            self.changed.clear();
            for (s, st) in self.slots.iter_mut().enumerate() {
                if st.alive {
                    st.member = rid;
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
            if self.link[l as usize].mark != epoch {
                self.link[l as usize].mark = epoch;
                self.res_links.push(l);
            }
        }

        for &s in &self.pending_adds {
            self.slots[s as usize].pending = false;
        }
        self.pending_adds.clear();
        for &l in &self.dirty {
            self.dirty_flag[l as usize] = false;
        }
        self.dirty.clear();
        kind
    }
}
