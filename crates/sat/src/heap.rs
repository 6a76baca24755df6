//! Indexed binary max-heap ordered by variable activity.
//!
//! The VSIDS branching heuristic needs a priority queue supporting
//! increase-key on arbitrary elements; a plain `BinaryHeap` cannot do that,
//! so we keep a position index per variable.

/// Max-heap over variable indices keyed by an external activity array.
#[derive(Debug, Default, Clone)]
pub(crate) struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `positions[v]` = index of `v` in `heap`, or `u32::MAX` when absent.
    positions: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl ActivityHeap {
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Grows the position index to cover variable `v`.
    pub fn reserve_var(&mut self, v: usize) {
        if self.positions.len() <= v {
            self.positions.resize(v + 1, ABSENT);
        }
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn contains(&self, v: usize) -> bool {
        self.positions.get(v).is_some_and(|&p| p != ABSENT)
    }

    /// Inserts `v` if absent.
    pub fn insert(&mut self, v: usize, activity: &[f64]) {
        self.reserve_var(v);
        if self.contains(v) {
            return;
        }
        let pos = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.positions[v] = pos;
        self.sift_up(pos as usize, activity);
    }

    /// Removes and returns the variable with maximal activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0] as usize;
        let last = self.heap.pop().unwrap();
        self.positions[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores heap order for `v` after its activity increased.
    pub fn update(&mut self, v: usize, activity: &[f64]) {
        if let Some(&p) = self.positions.get(v) {
            if p != ABSENT {
                self.sift_up(p as usize, activity);
            }
        }
    }

    /// Moves the element at `i` up past every parent of lower activity,
    /// shifting those parents down into the hole it leaves.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let ax = activity[x as usize];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if ax > activity[p as usize] {
                self.heap[i] = p;
                self.positions[p as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.positions[x as usize] = i as u32;
    }

    /// Moves the element at `i` down while a child has higher activity,
    /// taking the left child on a tie between the two.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let n = self.heap.len();
        let x = self.heap[i];
        let ax = activity[x as usize];
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child =
                if r < n && activity[self.heap[r] as usize] > activity[self.heap[l] as usize] {
                    r
                } else {
                    l
                };
            let c = self.heap[child];
            if activity[c as usize] > ax {
                self.heap[i] = c;
                self.positions[c as usize] = i as u32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.positions[x as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &activity);
        }
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(3));
        assert_eq!(h.pop_max(&activity), Some(2));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), None);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &activity);
        h.insert(0, &activity);
        h.insert(1, &activity);
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert!(h.is_empty());
    }

    #[test]
    fn update_reorders_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.update(0, &activity);
        assert_eq!(h.pop_max(&activity), Some(0));
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0];
        let mut h = ActivityHeap::new();
        assert!(!h.contains(0));
        h.insert(0, &activity);
        assert!(h.contains(0));
        h.pop_max(&activity);
        assert!(!h.contains(0));
    }
}
