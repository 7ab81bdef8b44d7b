//! The lazy min-heap of `(saturation level, link)` both solvers share.

use super::WaterFiller;

impl WaterFiller {
    #[inline]
    pub(super) fn heap_push(&mut self, key: f64, l: u32) {
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
    pub(super) fn heap_pop(&mut self) -> Option<(f64, u32)> {
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

    /// Floyd heapify over the whole `heap` buffer (O(n), vs n log n pushes).
    pub(super) fn heapify(&mut self) {
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
}
