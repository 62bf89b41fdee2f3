//! Indexed binary max-heap over variables, ordered by VSIDS activity.

use crate::lit::Var;

/// A binary max-heap of variables keyed by VSIDS activity.
///
/// Each slot caches its variable's key next to the heap array
/// (`keys[i]` is the activity of `heap[i]`), so the sift loops compare
/// neighbouring memory instead of chasing `activity[heap[j]]`. The
/// solver keeps the cache exact: every activity change goes through
/// [`VarHeap::update`] or [`VarHeap::scale`], which apply the same
/// floating-point operation the activity array sees, so every comparison
/// — and hence the tie-breaking and the pop order — is the one an
/// uncached heap over the activity array would make.
///
/// The heap stores positions per variable so that activity increases can
/// re-sift a contained variable in `O(log n)`.
#[derive(Clone, Debug, Default)]
pub struct VarHeap {
    heap: Vec<Var>,
    keys: Vec<f64>,
    position: Vec<i32>, // -1 when absent
}

impl VarHeap {
    /// Creates an empty heap.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new() -> Self {
        VarHeap::default()
    }

    /// Extends the position table to cover `num_vars` variables.
    pub fn grow(&mut self, num_vars: usize) {
        if self.position.len() < num_vars {
            self.position.resize(num_vars, -1);
        }
    }

    /// Reserves room for `additional` more variables.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.keys.reserve(additional);
        self.position.reserve(additional);
    }

    /// Number of variables currently in the heap.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if the heap is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` if `var` is in the heap.
    #[inline]
    pub fn contains(&self, var: Var) -> bool {
        self.position[var.index()] >= 0
    }

    // The sift loops below index without bounds checks. Their indices
    // are slot numbers below `heap.len()` (each loop compares against the
    // length, or walks towards the root from a valid slot), `keys` always
    // has the same length as `heap`, and every variable in the heap
    // passed `contains`' checked lookup, so its index is below
    // `position.len()`.

    /// The cached key of slot `i < len`.
    #[inline(always)]
    fn key(&self, i: usize) -> f64 {
        debug_assert!(i < self.keys.len());
        // SAFETY: `i` is a slot below the length, see above.
        unsafe { *self.keys.get_unchecked(i) }
    }

    /// Moves slot `from`'s entry to slot `to` (both below the length).
    #[inline(always)]
    fn move_slot(&mut self, from: usize, to: usize) {
        debug_assert!(from < self.heap.len() && to < self.heap.len());
        // SAFETY: both slots are below the length and the moved variable
        // is a heap member, see above.
        unsafe {
            let var = *self.heap.get_unchecked(from);
            *self.heap.get_unchecked_mut(to) = var;
            *self.keys.get_unchecked_mut(to) = *self.keys.get_unchecked(from);
            *self.position.get_unchecked_mut(var.index()) = to as i32;
        }
    }

    /// Places `(var, key)` in slot `pos` (below the length).
    #[inline(always)]
    fn place(&mut self, pos: usize, var: Var, key: f64) {
        debug_assert!(pos < self.heap.len() && var.index() < self.position.len());
        // SAFETY: `pos` is below the length and `var` is a heap member,
        // see above.
        unsafe {
            *self.heap.get_unchecked_mut(pos) = var;
            *self.keys.get_unchecked_mut(pos) = key;
            *self.position.get_unchecked_mut(var.index()) = pos as i32;
        }
    }

    /// Moves the hole at `pos` towards the root until `key` fits, then
    /// places `(var, key)` there.
    fn sift_up(&mut self, mut pos: usize, var: Var, key: f64) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(parent) >= key {
                break;
            }
            self.move_slot(parent, pos);
            pos = parent;
        }
        self.place(pos, var, key);
    }

    /// Moves the hole at `pos` towards the leaves until `key` fits, then
    /// places `(var, key)` there.
    ///
    /// The larger child is chosen arithmetically rather than by a branch
    /// (a coin flip the predictor cannot learn); a right child wins only
    /// when strictly larger, so ties go left as in any textbook heap.
    fn sift_down(&mut self, mut pos: usize, var: Var, key: f64) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            let child = if left + 1 < len {
                left + usize::from(self.key(left + 1) > self.key(left))
            } else if left < len {
                left
            } else {
                break;
            };
            if self.key(child) <= key {
                break;
            }
            self.move_slot(child, pos);
            pos = child;
        }
        self.place(pos, var, key);
    }

    /// Inserts `var` with activity `key` if absent. `var` must be covered
    /// by [`VarHeap::grow`].
    #[inline]
    pub fn insert(&mut self, var: Var, key: f64) {
        if self.contains(var) {
            return;
        }
        let pos = self.heap.len();
        self.heap.push(var);
        self.keys.push(key);
        // Fast path: most inserts (backtracking re-inserts, fresh
        // variables) carry a key no larger than their parent's — e.g. the
        // zero activity of a never-bumped variable — and stay at the end.
        if pos == 0 || self.key((pos - 1) / 2) >= key {
            self.position[var.index()] = pos as i32;
        } else {
            self.sift_up(pos, var, key);
        }
    }

    /// Records that `var`'s activity increased to `key` and restores heap
    /// order; a no-op when `var` is absent.
    pub fn update(&mut self, var: Var, key: f64) {
        if self.contains(var) {
            let pos = self.position[var.index()] as usize;
            self.sift_up(pos, var, key);
        }
    }

    /// Multiplies every cached key by `factor` — the activity rescale,
    /// applied with the same operation so keys stay bit-identical to the
    /// activities.
    pub fn scale(&mut self, factor: f64) {
        for key in &mut self.keys {
            *key *= factor;
        }
    }

    /// Removes every variable.
    pub fn clear(&mut self) {
        for &var in &self.heap {
            self.position[var.index()] = -1;
        }
        self.heap.clear();
        self.keys.clear();
    }

    /// Feeds the heap's slots (variable and key, in slot order) to
    /// `hasher`.
    pub fn hash_content<H: std::hash::Hasher>(&self, hasher: &mut H) {
        hasher.write_usize(self.heap.len());
        for (var, key) in self.heap.iter().zip(&self.keys) {
            hasher.write_usize(var.index());
            hasher.write_u64(key.to_bits());
        }
    }

    /// Pops the variable with maximal activity.
    #[inline]
    pub fn pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        self.position[top.index()] = -1;
        let last = self.heap.pop().expect("non-empty");
        let last_key = self.keys.pop().expect("keys mirror the heap");
        if !self.heap.is_empty() {
            self.sift_down(0, last, last_key);
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    fn filled(activity: &[f64]) -> VarHeap {
        let mut heap = VarHeap::new();
        heap.grow(activity.len());
        for (i, &a) in activity.iter().enumerate() {
            heap.insert(v(i), a);
        }
        heap
    }

    #[test]
    fn pops_in_activity_order() {
        let mut heap = filled(&[0.5, 3.0, 1.0, 2.0]);
        assert_eq!(heap.len(), 4);
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop())
            .map(|x| x.index())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(heap.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut heap = filled(&[1.0, 2.0]);
        heap.insert(v(0), 1.0);
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.pop(), Some(v(1)));
        heap.insert(v(0), 1.0);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn update_resifts() {
        let mut heap = filled(&[1.0, 2.0, 3.0]);
        heap.update(v(0), 10.0);
        assert_eq!(heap.pop(), Some(v(0)));
        // Scaling keeps the order.
        heap.scale(1e-100);
        assert_eq!(heap.pop(), Some(v(2)));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut heap = VarHeap::new();
        heap.grow(1);
        assert!(!heap.contains(v(0)));
        heap.insert(v(0), 1.0);
        assert!(heap.contains(v(0)));
        heap.pop();
        assert!(!heap.contains(v(0)));
    }

    #[test]
    fn randomized_against_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(1..50);
            let activity: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mut heap = filled(&activity);
            let popped: Vec<f64> = std::iter::from_fn(|| heap.pop())
                .map(|x| activity[x.index()])
                .collect();
            let mut sorted = popped.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            assert_eq!(popped, sorted);
        }
    }
}
