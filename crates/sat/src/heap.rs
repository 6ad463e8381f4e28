//! Indexed binary max-heap over variable activities (the VSIDS order heap),
//! with deferred repair after activity bumps.
//!
//! Keys only ever grow in place (VSIDS bumps the activity of variables that
//! are already enqueued), so [`ActivityHeap::bumped`] does not sift: it
//! marks the variable *stale*, once, and leaves the heap as it is. The
//! stale set carries the invariant
//!
//! > every parent–child pair whose child is not stale satisfies the heap
//! > property,
//!
//! which a bump cannot break: raising `v`'s key only strengthens the pairs
//! where `v` is the parent, and the pair where `v` is the child is exempt
//! once `v` is stale. [`ActivityHeap::pop`] and [`ActivityHeap::insert`]
//! flush the stale set before they rely on the heap property, by sifting
//! each stale variable up, **shallowest first** (ascending heap position).
//!
//! The order is what makes the sift-ups correct. A sift-up from slot `p`
//! touches only ancestors of `p`, whose slots are smaller than `p`; taking
//! the stale slots in ascending order, every stale variable on that path has
//! already been repaired, so the path is heap-ordered and the sift stops at
//! the right place. An unrepaired stale variable is never on a sift path,
//! so it never moves before its turn and its recorded slot stays valid.
//! Sifting in any other order can leave a repaired variable below a worse
//! parent.
//!
//! `better` is a strict total order on `(activity, index)`, so a valid heap
//! has exactly one possible top, and every pop returns the best enqueued
//! variable whatever the internal layout. Bumps only raise keys, which the
//! stale set covers. The one other change to the keys is the VSIDS
//! rescale, which multiplies every activity by one factor: that keeps
//! their order, except that rounding can merge two different activities
//! into a tie, and the index then decides the tie, which can reverse a
//! parent–child pair. The solver calls [`ActivityHeap::rebuild`] after
//! each rescale, so the heap is valid at every flush point.
//!
//! An eagerly repaired heap (one sift per bump) pops the same variables as
//! long as it is valid too. It never repairs a pair reversed by a rescale,
//! so from such a rescale on its pops can differ from this heap's. Up to
//! one, deferring the repair changes the cost of the search, not the
//! search.

use crate::lit::Var;

/// Max-heap of variables keyed by an external activity array.
#[derive(Default, Clone)]
pub struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `pos[v] == u32::MAX` when v is not in the heap, else its heap slot.
    pos: Vec<u32>,
    /// Enqueued variables whose activity grew since the last flush.
    stale: Vec<u32>,
    /// `is_stale[v]` ⇔ `v` is listed in `stale`.
    is_stale: Vec<bool>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl ActivityHeap {
    /// Creates an empty heap.
    pub fn new() -> ActivityHeap {
        ActivityHeap::default()
    }

    /// Extends the index tables to cover variables `0..n`.
    pub fn grow_to(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, NOT_IN_HEAP);
            self.is_stale.resize(n, false);
        }
    }

    /// Number of enqueued variables.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no variable is enqueued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` when `v` is currently enqueued.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != NOT_IN_HEAP)
    }

    /// Inserts `v` (no-op if already present).
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        self.grow_to(v.index() + 1);
        if self.contains(v) {
            return;
        }
        self.flush(activity);
        let slot = self.heap.len() as u32;
        self.heap.push(v.index() as u32);
        self.pos[v.index()] = slot;
        self.sift_up(slot as usize, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        self.flush(activity);
        let top = self.heap[0];
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var::new(top))
    }

    /// Records that `v`'s activity increased. The heap is repaired lazily,
    /// at the next [`Self::pop`] or [`Self::insert`].
    #[inline]
    pub fn bumped(&mut self, v: Var) {
        let i = v.index();
        if self.pos.get(i).is_some_and(|&p| p != NOT_IN_HEAP) && !self.is_stale[i] {
            self.is_stale[i] = true;
            self.stale.push(i as u32);
        }
    }

    /// Restores the heap property after bumps by sifting each stale
    /// variable up, shallowest first (see the module docs for why the
    /// order matters).
    fn flush(&mut self, activity: &[f64]) {
        if self.stale.is_empty() {
            return;
        }
        let mut stale = std::mem::take(&mut self.stale);
        // Replace each variable by its slot: unrepaired stale variables
        // never move, so the slots stay valid while the loop runs.
        for v in stale.iter_mut() {
            self.is_stale[*v as usize] = false;
            *v = self.pos[*v as usize];
        }
        stale.sort_unstable();
        for &slot in &stale {
            self.sift_up(slot as usize, activity);
        }
        stale.clear();
        self.stale = stale;
    }

    /// Rebuilds the heap bottom-up (Floyd's heapify, O(n)) and empties the
    /// stale set: the repair after an activity rescale. Scaling every key
    /// by the same factor can round two different activities to one value,
    /// which reverses the `(activity, index)` order of any parent–child
    /// pair it hits, a change the stale set does not cover.
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        for &v in &self.stale {
            self.is_stale[v as usize] = false;
        }
        self.stale.clear();
        let n = self.heap.len();
        for i in (0..n / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    #[inline]
    fn better(&self, a: u32, b: u32, activity: &[f64]) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if self.better(x, p, activity) {
                self.heap[i] = p;
                self.pos[p as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.pos[x as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.better(self.heap[right], self.heap[left], activity) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if self.better(c, x, activity) {
                self.heap[i] = c;
                self.pos[c as usize] = i as u32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.pos[x as usize] = i as u32;
    }

    /// Checks the stale-set invariant: the heap property on every pair whose
    /// child is not stale, and the slot and stale tables in sync. After a
    /// flush (no stale variables) this is the plain heap property.
    #[cfg(test)]
    fn check_invariants(&self, activity: &[f64]) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.is_stale[self.heap[i] as usize]
                    || !self.better(self.heap[i], self.heap[parent], activity),
                "heap property violated at {i}"
            );
        }
        for (i, &v) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[v as usize], i as u32, "pos table out of sync");
        }
        for &v in &self.stale {
            assert!(self.is_stale[v as usize], "stale list and flags disagree");
            assert!(
                self.pos[v as usize] != NOT_IN_HEAP,
                "stale variable not enqueued"
            );
        }
        let flagged = self.is_stale.iter().filter(|&&s| s).count();
        assert_eq!(flagged, self.stale.len(), "stale flags outside the list");
    }

    /// Flushes the stale set and checks the full heap property.
    #[cfg(test)]
    fn flush_and_check(&mut self, activity: &[f64]) {
        self.flush(activity);
        assert!(self.stale.is_empty());
        self.check_invariants(activity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for i in 0..4 {
            h.insert(Var::new(i), &activity);
        }
        h.check_invariants(&activity);
        let order: Vec<usize> = std::iter::from_fn(|| h.pop(&activity))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(Var::new(0), &activity);
        h.insert(Var::new(0), &activity);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for i in 0..3 {
            h.insert(Var::new(i), &activity);
        }
        activity[0] = 10.0;
        h.bumped(Var::new(0));
        // The bump only marks the variable; the stale-set invariant holds
        // and the next flush restores the full heap property.
        h.check_invariants(&activity);
        h.flush_and_check(&activity);
        assert_eq!(h.pop(&activity), Some(Var::new(0)));
    }

    #[test]
    fn ties_break_by_lower_index() {
        let activity = vec![1.0; 5];
        let mut h = ActivityHeap::new();
        for i in (0..5).rev() {
            h.insert(Var::new(i), &activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop(&activity))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rebuild_repairs_ties_made_by_a_rescale() {
        // Two adjacent doubles that the VSIDS rescale factor rounds to one
        // value: var 1 outranks var 0 before the rescale and sits above
        // it, after it the tie makes var 0 (lower index) the better one.
        let mut activity = vec![1.500_000_000_000_000_7, 1.500_000_000_000_000_9];
        let mut h = ActivityHeap::new();
        for i in 0..2 {
            h.insert(Var::new(i), &activity);
        }
        for a in &mut activity {
            *a *= 1e-100;
        }
        assert_eq!(activity[0], activity[1]);
        h.rebuild(&activity);
        h.check_invariants(&activity);
        assert_eq!(h.pop(&activity), Some(Var::new(0)));
        assert_eq!(h.pop(&activity), Some(Var::new(1)));
    }

    /// Deterministic xorshift stream for the randomized tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn interleaved_ops_keep_invariants() {
        // Deterministic pseudo-random stress of insert/pop/bump: the
        // stale-set invariant holds after every operation, and the full
        // heap property at every flush point (each insert or pop).
        let mut activity = vec![0.0f64; 64];
        let mut h = ActivityHeap::new();
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..2000 {
            let v = Var::new((next() % 64) as u32);
            match next() % 3 {
                0 => {
                    h.insert(v, &activity);
                    if h.stale.is_empty() {
                        h.check_invariants(&activity);
                    }
                }
                1 => {
                    activity[v.index()] += (next() % 100) as f64;
                    h.bumped(v);
                }
                _ => {
                    h.pop(&activity);
                    assert!(h.stale.is_empty());
                }
            }
            h.check_invariants(&activity);
        }
        h.flush_and_check(&activity);
    }

    /// The eager reference the deferred heap must agree with: every pop
    /// returns the best enqueued variable under `(activity desc, index asc)`.
    struct EagerModel {
        enqueued: Vec<bool>,
    }

    impl EagerModel {
        fn pop(&mut self, activity: &[f64]) -> Option<Var> {
            let best = (0..self.enqueued.len())
                .filter(|&v| self.enqueued[v])
                .min_by(|&a, &b| activity[b].total_cmp(&activity[a]).then(a.cmp(&b)))?;
            self.enqueued[best] = false;
            Some(Var::new(best as u32))
        }
    }

    /// Runs `ops` random insert/bump/pop steps over `n` variables and
    /// compares every pop with the eager model. Bumps add small integers so
    /// activity ties are common; up to `burst` bumps per step set how large
    /// the stale set grows before a flush. Now and then every activity is
    /// rescaled and the heap rebuilt, stale set and all, as the solver does.
    /// Returns how many pops flushed a non-empty stale set.
    fn differential(seed: u64, n: usize, ops: usize, burst: usize) -> usize {
        let mut activity = vec![0.0f64; n];
        let mut h = ActivityHeap::new();
        let mut model = EagerModel {
            enqueued: vec![false; n],
        };
        let mut next = xorshift(seed);
        let mut flushes = 0;
        for _ in 0..ops {
            match next() % 64 {
                0 => {
                    for a in &mut activity {
                        *a *= 0.125;
                    }
                    h.rebuild(&activity);
                    assert!(h.stale.is_empty());
                }
                1..=16 => {
                    let v = Var::new((next() % n as u64) as u32);
                    h.insert(v, &activity);
                    model.enqueued[v.index()] = true;
                }
                17..=48 => {
                    for _ in 0..1 + next() as usize % burst {
                        let v = Var::new((next() % n as u64) as u32);
                        activity[v.index()] += (next() % 4) as f64;
                        h.bumped(v);
                    }
                }
                _ => {
                    flushes += usize::from(!h.stale.is_empty());
                    assert_eq!(h.pop(&activity), model.pop(&activity), "seed {seed}");
                }
            }
            h.check_invariants(&activity);
        }
        while let Some(v) = model.pop(&activity) {
            assert_eq!(h.pop(&activity), Some(v), "seed {seed}");
        }
        assert!(h.is_empty());
        flushes
    }

    #[test]
    fn deferred_pops_match_eager_reference() {
        let mut flushes = 0;
        for seed in 1..=24u64 {
            let n = [8, 64, 300][seed as usize % 3];
            let burst = [1, 4, 40][(seed as usize / 3) % 3];
            flushes += differential(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), n, 3000, burst);
        }
        assert!(
            flushes > 1000,
            "only {flushes} pops flushed stale variables"
        );
    }
}
