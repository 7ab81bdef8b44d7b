//! The lazy min-heap of `(saturation level, link)` both solvers share (the
//! residual solve keeps a second one of `(cap, flow)`).
//!
//! Equal keys are the common case on uniform fabrics, and which of two
//! tied links pops first decides which one labels the freeze round
//! (`link_level`) and how many rates a rebalance rewrites. Pop order among
//! equal keys is a function of the backing array's layout alone, so the
//! layout is this type's contract: after every operation the array is
//! element for element what the textbook swap-based binary heap (kept
//! below as the tests' oracle) would hold. The operations only reach that
//! layout with fewer moves and fewer unpredictable branches.

/// Binary min-heap on the `f64` key; the `u32` rides along.
#[derive(Default)]
pub(super) struct LazyHeap {
    items: Vec<(f64, u32)>,
}

impl LazyHeap {
    #[inline]
    pub(super) fn clear(&mut self) {
        self.items.clear();
    }

    #[inline]
    pub(super) fn reserve(&mut self, n: usize) {
        self.items.reserve(n);
    }

    /// The entry [`Self::pop`] would return.
    #[inline]
    pub(super) fn first(&self) -> Option<&(f64, u32)> {
        self.items.first()
    }

    /// Replace the contents with the kept ones of `n` candidates, in
    /// order, and heapify: `entry(i)` gives candidate `i` and whether to
    /// keep it. Every candidate is written and the flag only advances the
    /// length, so a flag that is hard to predict costs no branch.
    #[inline]
    pub(super) fn refill(&mut self, n: usize, mut entry: impl FnMut(usize) -> ((f64, u32), bool)) {
        self.items.clear();
        self.items.resize(n, (0.0, 0));
        let mut len = 0;
        for i in 0..n {
            let (item, keep) = entry(i);
            self.items[len] = item;
            len += keep as usize;
        }
        self.items.truncate(len);
        self.heapify();
    }

    /// Sift-up carrying the new entry in a register: parents strictly
    /// above it move down one level, then it is written once.
    #[inline]
    pub(super) fn push(&mut self, key: f64, l: u32) {
        self.items.push((key, l));
        let h = self.items.as_mut_slice();
        let mut i = h.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if h[p].0 <= key {
                break;
            }
            h[i] = h[p];
            i = p;
        }
        h[i] = (key, l);
    }

    /// Remove the minimum. The displaced last entry belongs at the first
    /// position on the min-child path whose child is not strictly below
    /// it. It came from the bottom level, so that position is almost
    /// always near the bottom: walk the whole path down first — no
    /// comparison against the entry, the child picked without a branch
    /// (right only if strictly smaller, as the top-down rule picks) —
    /// then climb back while the path element is `>=` the entry. Keys
    /// along a min-child path never decrease, so both walks stop at the
    /// same place.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<(f64, u32)> {
        let last = self.items.pop()?;
        let h = self.items.as_mut_slice();
        let n = h.len();
        if n == 0 {
            return Some(last);
        }
        let top = h[0];
        let mut i = 0;
        while 2 * i + 2 < n {
            let a = 2 * i + 1;
            let c = a + (h[a + 1].0 < h[a].0) as usize;
            h[i] = h[c];
            i = c;
        }
        if 2 * i + 1 < n {
            h[i] = h[2 * i + 1];
            i = 2 * i + 1;
        }
        while i > 0 {
            let p = (i - 1) / 2;
            if h[p].0 < last.0 {
                break;
            }
            h[i] = h[p];
            i = p;
        }
        h[i] = last;
        Some(top)
    }

    /// Floyd heapify over the whole buffer (O(n), vs n log n pushes).
    /// Entries here stop after a level or two, so the sift stays top-down;
    /// it carries the entry instead of swapping it down.
    fn heapify(&mut self) {
        let h = self.items.as_mut_slice();
        let n = h.len();
        for start in (0..n / 2).rev() {
            let x = h[start];
            let mut i = start;
            loop {
                let a = 2 * i + 1;
                if a >= n {
                    break;
                }
                let c = if a + 1 < n && h[a + 1].0 < h[a].0 {
                    a + 1
                } else {
                    a
                };
                if h[c].0 >= x.0 {
                    break;
                }
                h[i] = h[c];
                i = c;
            }
            h[i] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LazyHeap;

    /// The swap-based heap [`LazyHeap`] replaced, verbatim: the layout
    /// oracle.
    #[derive(Default)]
    struct SwapHeap {
        heap: Vec<(f64, u32)>,
    }

    impl SwapHeap {
        fn sift_down(&mut self, mut i: usize) {
            let n = self.heap.len();
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

        fn push(&mut self, key: f64, l: u32) {
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

        fn pop(&mut self) -> Option<(f64, u32)> {
            let n = self.heap.len();
            if n == 0 {
                return None;
            }
            self.heap.swap(0, n - 1);
            let top = self.heap.pop();
            self.sift_down(0);
            top
        }

        fn heapify(&mut self) {
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }
    }

    /// Random push / pop / refill-and-heapify sequences over a handful of
    /// distinct keys (so most comparisons are ties, `∞` included): the
    /// backing arrays must agree after every operation.
    #[test]
    fn layout_matches_the_swap_based_heap() {
        let mut seed = 0x0DDB_A115_EED0_0001u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut pops = 0u64;
        for trial in 0..400 {
            let distinct = 1 + next() % [2, 5, 40][trial % 3];
            let key = |r: u64| match r % (distinct + 1) {
                0 => f64::INFINITY,
                k => k as f64 * 12.5,
            };
            let (mut new, mut old) = (LazyHeap::default(), SwapHeap::default());
            let mut id = 0u32;
            for _ in 0..300 {
                match next() % 8 {
                    0..=2 => {
                        let k = key(next());
                        new.push(k, id);
                        old.push(k, id);
                        id += 1;
                    }
                    3..=6 => {
                        assert_eq!(new.pop(), old.pop());
                        pops += 1;
                    }
                    _ => {
                        // The residual solve's seeding: refill, heapify.
                        let candidates: Vec<((f64, u32), bool)> = (0..next() % 130)
                            .map(|i| ((key(next()), id + i as u32), next() % 3 != 0))
                            .collect();
                        id += candidates.len() as u32;
                        new.refill(candidates.len(), |i| candidates[i]);
                        old.heap.clear();
                        old.heap
                            .extend(candidates.iter().filter(|c| c.1).map(|c| c.0));
                        old.heapify();
                    }
                }
                assert_eq!(new.items, old.heap, "trial {trial}");
                assert_eq!(new.first(), old.heap.first());
            }
        }
        assert!(pops > 10_000, "pops barely exercised: {pops}");
    }
}
