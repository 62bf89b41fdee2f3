//! Arena-based clause storage.
//!
//! Clauses live in one contiguous `u32` buffer and are referenced by
//! [`CRef`] offsets, MiniSat-style. A clause is a header word (size, learnt
//! flag, delete mark), an optional activity word for learnt clauses, and the
//! literal payload. Deleted clauses leave garbage that
//! [`ClauseDb::needs_gc`] lets the solver reclaim by rebuilding.

use crate::lit::Lit;

/// Reference to a clause inside a [`ClauseDb`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CRef(u32);

impl CRef {
    /// Sentinel for "no clause" (used for decision/unassigned reasons).
    pub const UNDEF: CRef = CRef(u32::MAX);

    /// `true` unless this is [`CRef::UNDEF`].
    #[inline]
    pub fn is_defined(self) -> bool {
        self != CRef::UNDEF
    }

    /// The reference to the clause at word `offset` of the arena.
    #[inline]
    pub(crate) fn at(offset: u32) -> CRef {
        CRef(offset)
    }

    /// The clause's word offset in the arena.
    #[inline]
    pub(crate) fn offset(self) -> u32 {
        self.0
    }
}

const LEARNT_BIT: u32 = 1;
const DELETED_BIT: u32 = 2;
const SIZE_SHIFT: u32 = 2;

/// The clause arena.
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    buf: Vec<u32>,
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Allocates a clause; `learnt` clauses carry an activity slot.
    ///
    /// # Panics
    ///
    /// Panics if `lits.len() < 2` — unit and empty clauses are handled on
    /// the trail, never stored.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        assert!(lits.len() >= 2, "stored clauses have at least two literals");
        let at = self.buf.len() as u32;
        let header = ((lits.len() as u32) << SIZE_SHIFT) | if learnt { LEARNT_BIT } else { 0 };
        self.buf.push(header);
        if learnt {
            self.buf.push(0f32.to_bits());
        }
        self.buf.extend(lits.iter().map(|l| l.code() as u32));
        CRef(at)
    }

    /// Appends `words`, an image of whole non-learnt clauses, adding
    /// `delta` to each word whose `mask` entry is `!0` (the literal codes
    /// that move), and returns the image's offset in the arena: a clause
    /// at offset `o` of the image is `CRef::at(returned + o)`.
    pub(crate) fn append_image(&mut self, words: &[u32], mask: &[u32], delta: u32) -> u32 {
        debug_assert_eq!(words.len(), mask.len());
        let at = self.buf.len() as u32;
        self.buf
            .extend(words.iter().zip(mask).map(|(&w, &m)| w + (delta & m)));
        at
    }

    /// Reserves room for `words` more arena words.
    pub(crate) fn reserve(&mut self, words: usize) {
        self.buf.reserve(words);
    }

    /// Feeds the arena's words to `hasher`.
    pub(crate) fn hash_words<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.buf.hash(hasher);
        self.wasted.hash(hasher);
    }

    #[inline]
    fn header(&self, c: CRef) -> u32 {
        self.buf[c.0 as usize]
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn size(&self, c: CRef) -> usize {
        (self.header(c) >> SIZE_SHIFT) as usize
    }

    /// `true` for learnt clauses.
    #[inline]
    pub fn is_learnt(&self, c: CRef) -> bool {
        self.header(c) & LEARNT_BIT != 0
    }

    /// `true` if the clause was marked deleted.
    #[inline]
    pub fn is_deleted(&self, c: CRef) -> bool {
        self.header(c) & DELETED_BIT != 0
    }

    /// Marks the clause deleted (payload stays until garbage collection).
    pub fn delete(&mut self, c: CRef) {
        if !self.is_deleted(c) {
            self.buf[c.0 as usize] |= DELETED_BIT;
            self.wasted += self.total_words(c);
        }
    }

    fn total_words(&self, c: CRef) -> usize {
        1 + self.is_learnt(c) as usize + self.size(c)
    }

    /// The payload's word range, from one header read.
    #[inline]
    fn payload(&self, c: CRef) -> std::ops::Range<usize> {
        let at = c.0 as usize;
        let header = self.buf[at];
        let start = at + 1 + (header & LEARNT_BIT) as usize;
        start..start + (header >> SIZE_SHIFT) as usize
    }

    /// The clause's literals.
    #[inline]
    pub fn lits(&self, c: CRef) -> &[Lit] {
        let words = &self.buf[self.payload(c)];
        // SAFETY: `Lit` is `#[repr(transparent)]` over `u32` and every code
        // stored in the payload came from `Lit::code`.
        unsafe { std::mem::transmute::<&[u32], &[Lit]>(words) }
    }

    /// Mutable access to the clause's literals (for watch reordering).
    #[inline]
    pub fn lits_mut(&mut self, c: CRef) -> &mut [Lit] {
        let range = self.payload(c);
        let words = &mut self.buf[range];
        // SAFETY: as in `lits`; mutation writes only valid literal codes.
        unsafe { std::mem::transmute::<&mut [u32], &mut [Lit]>(words) }
    }

    /// Learnt-clause activity.
    pub fn activity(&self, c: CRef) -> f32 {
        debug_assert!(self.is_learnt(c));
        f32::from_bits(self.buf[c.0 as usize + 1])
    }

    /// Sets learnt-clause activity.
    pub fn set_activity(&mut self, c: CRef, activity: f32) {
        debug_assert!(self.is_learnt(c));
        self.buf[c.0 as usize + 1] = activity.to_bits();
    }

    /// `true` when at least 25% of the arena is garbage.
    pub fn needs_gc(&self) -> bool {
        self.wasted * 4 > self.buf.len() && self.buf.len() > 1024
    }

    /// Words currently wasted by deleted clauses.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Copies a live clause into `target`, returning its new reference.
    ///
    /// # Panics
    ///
    /// Panics if the clause is deleted.
    pub fn copy_into(&self, c: CRef, target: &mut ClauseDb) -> CRef {
        assert!(!self.is_deleted(c), "cannot relocate a deleted clause");
        let cref = target.alloc(self.lits(c), self.is_learnt(c));
        if self.is_learnt(c) {
            target.set_activity(cref, self.activity(c));
        }
        cref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(codes: &[usize]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_and_read() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[0, 3, 5]), false);
        let b = db.alloc(&lits(&[2, 7]), true);
        assert_eq!(db.size(a), 3);
        assert_eq!(db.size(b), 2);
        assert!(!db.is_learnt(a));
        assert!(db.is_learnt(b));
        assert_eq!(db.lits(a), &lits(&[0, 3, 5])[..]);
        assert_eq!(db.lits(b), &lits(&[2, 7])[..]);
    }

    #[test]
    fn activity_round_trip() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[0, 2]), true);
        assert_eq!(db.activity(c), 0.0);
        db.set_activity(c, 3.5);
        assert_eq!(db.activity(c), 3.5);
    }

    #[test]
    fn mutate_literals() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[0, 2, 4]), false);
        db.lits_mut(c).swap(0, 2);
        assert_eq!(db.lits(c), &lits(&[4, 2, 0])[..]);
    }

    #[test]
    fn delete_tracks_waste() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[0, 2, 4]), false);
        let _b = db.alloc(&lits(&[0, 2]), true);
        assert_eq!(db.wasted(), 0);
        db.delete(a);
        assert!(db.is_deleted(a));
        assert_eq!(db.wasted(), 4); // header + 3 lits
        db.delete(a); // idempotent
        assert_eq!(db.wasted(), 4);
    }

    #[test]
    fn copy_into_relocates() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 3]), true);
        db.set_activity(a, 2.0);
        let mut fresh = ClauseDb::new();
        let a2 = db.copy_into(a, &mut fresh);
        assert_eq!(fresh.lits(a2), db.lits(a));
        assert_eq!(fresh.activity(a2), 2.0);
    }

    #[test]
    fn undef_sentinel() {
        assert!(!CRef::UNDEF.is_defined());
        let mut db = ClauseDb::new();
        let c = db.alloc(
            &[Var::from_index(0).positive(), Var::from_index(1).positive()],
            false,
        );
        assert!(c.is_defined());
    }
}
