//! Clause storage: a flat `u32` arena with compact headers.
//!
//! Clauses live back-to-back in one `Vec<u32>`; a [`CRef`] is an offset into
//! that arena. Each clause is laid out as
//!
//! ```text
//! [ header ][ activity ][ lbd ][ lit 0 ][ lit 1 ] ... [ lit n-1 ]
//! ```
//!
//! where `header` packs the length (lower 27 bits), a *learnt* flag and a
//! *deleted* flag, and `activity` stores an `f32` bit pattern (learnt
//! clauses only use it, but the slot is always present to keep offsets
//! uniform). Deleted clauses are left in place until [`ClauseDb::collect`]
//! compacts the arena and reports the relocation map.

use crate::lit::Lit;

/// Reference to a clause in the arena (offset of its header word).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CRef(u32);

impl CRef {
    /// A sentinel that never refers to a real clause.
    pub const UNDEF: CRef = CRef(u32::MAX);

    /// Arena offsets stay below this bit, which leaves it free in every
    /// real reference: the solver's watchers use it as a flag.
    pub(crate) const SPARE_BIT: u32 = 1 << 31;

    /// The raw offset bits (below [`CRef::SPARE_BIT`] for real clauses).
    #[inline]
    pub(crate) const fn bits(self) -> u32 {
        self.0
    }

    /// Rebuilds a reference from [`CRef::bits`].
    #[inline]
    pub(crate) const fn from_bits(bits: u32) -> CRef {
        CRef(bits)
    }

    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }
}

const LEN_BITS: u32 = 27;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
const FLAG_LEARNT: u32 = 1 << 27;
const FLAG_DELETED: u32 = 1 << 28;
const FLAG_IMPORTED: u32 = 1 << 29;
const HEADER_WORDS: usize = 3;

/// The clause arena.
#[derive(Default, Clone)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Number of live (non-deleted) learnt clauses.
    num_learnt: usize,
    /// Number of live problem clauses.
    num_problem: usize,
    /// Number of live learnt clauses imported from the share pool (a subset
    /// of `num_learnt`; excluded from the learnt-cap rescale trigger).
    num_imported: usize,
    /// Words occupied by deleted clauses, to decide when compaction pays off.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Appends a clause and returns its reference.
    ///
    /// `lits` must contain at least two literals — unit and empty clauses are
    /// handled at the solver level (units go straight onto the trail).
    pub fn add(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2, "arena clauses must have >= 2 literals");
        debug_assert!((lits.len() as u32) <= LEN_MASK);
        assert!(
            self.arena.len() < CRef::SPARE_BIT as usize,
            "clause arena exceeds 2^31 words"
        );
        let at = self.arena.len() as u32;
        let mut header = lits.len() as u32;
        if learnt {
            header |= FLAG_LEARNT;
            self.num_learnt += 1;
        } else {
            self.num_problem += 1;
        }
        self.arena.reserve(HEADER_WORDS + lits.len());
        self.arena.push(header);
        self.arena.push(0f32.to_bits());
        self.arena.push(0); // LBD, set by the solver for learnt clauses
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        CRef(at)
    }

    /// The literals of clause `c`.
    #[inline]
    pub fn lits(&self, c: CRef) -> &[Lit] {
        let off = c.offset();
        let len = (self.arena[off] & LEN_MASK) as usize;
        let body = &self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        // SAFETY: `Lit` is a transparent-layout wrapper over u32 by
        // construction (single u32 field); codes were produced by Lit::code.
        unsafe { std::slice::from_raw_parts(body.as_ptr().cast::<Lit>(), len) }
    }

    /// Mutable access to the literals of clause `c`.
    #[inline]
    pub fn lits_mut(&mut self, c: CRef) -> &mut [Lit] {
        let off = c.offset();
        let len = (self.arena[off] & LEN_MASK) as usize;
        let body = &mut self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        unsafe { std::slice::from_raw_parts_mut(body.as_mut_ptr().cast::<Lit>(), len) }
    }

    /// Number of literals in clause `c`.
    #[inline]
    pub fn len(&self, c: CRef) -> usize {
        (self.arena[c.offset()] & LEN_MASK) as usize
    }

    /// `true` if the arena holds no clauses at all.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// `true` if clause `c` was added with `learnt = true`.
    #[inline]
    pub fn is_learnt(&self, c: CRef) -> bool {
        self.arena[c.offset()] & FLAG_LEARNT != 0
    }

    /// `true` if clause `c` has been deleted (lazily).
    #[inline]
    pub fn is_deleted(&self, c: CRef) -> bool {
        self.arena[c.offset()] & FLAG_DELETED != 0
    }

    /// Marks clause `c` as imported from the share pool. The flag lives in
    /// the header, so it survives [`ClauseDb::collect`] relocation.
    pub fn mark_imported(&mut self, c: CRef) {
        let off = c.offset();
        debug_assert!(
            self.arena[off] & FLAG_LEARNT != 0,
            "only learnt clauses can be imported"
        );
        if self.arena[off] & FLAG_IMPORTED == 0 {
            self.arena[off] |= FLAG_IMPORTED;
            self.num_imported += 1;
        }
    }

    /// `true` if clause `c` came from the share pool.
    #[inline]
    pub fn is_imported(&self, c: CRef) -> bool {
        self.arena[c.offset()] & FLAG_IMPORTED != 0
    }

    /// Live imported-clause count (subset of [`ClauseDb::num_learnt`]).
    pub fn num_imported(&self) -> usize {
        self.num_imported
    }

    /// Clause activity (used for learnt-clause aging).
    #[inline]
    pub fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.arena[c.offset() + 1])
    }

    /// Overwrites clause activity.
    #[inline]
    pub fn set_activity(&mut self, c: CRef, a: f32) {
        self.arena[c.offset() + 1] = a.to_bits();
    }

    /// Literal block distance recorded for this clause (0 if never set).
    #[inline]
    pub fn lbd(&self, c: CRef) -> u32 {
        self.arena[c.offset() + 2]
    }

    /// Records the literal block distance of this clause.
    #[inline]
    pub fn set_lbd(&mut self, c: CRef, lbd: u32) {
        self.arena[c.offset() + 2] = lbd;
    }

    /// Marks clause `c` deleted. Space is reclaimed on [`ClauseDb::collect`].
    pub fn delete(&mut self, c: CRef) {
        let off = c.offset();
        debug_assert!(self.arena[off] & FLAG_DELETED == 0, "double delete");
        if self.arena[off] & FLAG_LEARNT != 0 {
            self.num_learnt -= 1;
            if self.arena[off] & FLAG_IMPORTED != 0 {
                self.num_imported -= 1;
            }
        } else {
            self.num_problem -= 1;
        }
        self.arena[off] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + (self.arena[off] & LEN_MASK) as usize;
    }

    /// Live learnt-clause count.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Live problem-clause count.
    pub fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Words wasted by deleted clauses.
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total words in the arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Multiplies the activity of every live learnt clause by `factor`, in
    /// place (the learnt-activity rescale).
    pub fn scale_learnt_activities(&mut self, factor: f32) {
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            if header & (FLAG_LEARNT | FLAG_DELETED) == FLAG_LEARNT {
                let a = f32::from_bits(self.arena[off + 1]) * factor;
                self.arena[off + 1] = a.to_bits();
            }
            off += HEADER_WORDS + (header & LEN_MASK) as usize;
        }
    }

    /// Iterates over the references of all live clauses.
    pub fn iter(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            while off < self.arena.len() {
                let here = off;
                let header = self.arena[here];
                off += HEADER_WORDS + (header & LEN_MASK) as usize;
                if header & FLAG_DELETED == 0 {
                    return Some(CRef(here as u32));
                }
            }
            None
        })
    }

    /// Compacts the arena, dropping deleted clauses. Calls `moved(old, new)`
    /// for every surviving clause so the caller can patch watch lists and
    /// reason references.
    pub fn collect(&mut self, mut moved: impl FnMut(CRef, CRef)) {
        let mut new_arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            let words = HEADER_WORDS + (header & LEN_MASK) as usize;
            if header & FLAG_DELETED == 0 {
                let new_off = new_arena.len() as u32;
                new_arena.extend_from_slice(&self.arena[off..off + words]);
                moved(CRef(off as u32), CRef(new_off));
            }
            off += words;
        }
        self.arena = new_arena;
        self.wasted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&lits(&[0, 3]), false);
        let c2 = db.add(&lits(&[2, 5, 7]), true);
        assert_eq!(db.lits(c1), &lits(&[0, 3])[..]);
        assert_eq!(db.lits(c2), &lits(&[2, 5, 7])[..]);
        assert_eq!(db.len(c1), 2);
        assert_eq!(db.len(c2), 3);
        assert!(!db.is_learnt(c1));
        assert!(db.is_learnt(c2));
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnt(), 1);
    }

    #[test]
    fn activity_roundtrip() {
        let mut db = ClauseDb::new();
        let c = db.add(&lits(&[0, 2]), true);
        assert_eq!(db.activity(c), 0.0);
        db.set_activity(c, 1.5);
        assert_eq!(db.activity(c), 1.5);
    }

    #[test]
    fn delete_and_iterate() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&lits(&[0, 2]), false);
        let c2 = db.add(&lits(&[4, 6]), true);
        let c3 = db.add(&lits(&[8, 10]), true);
        db.delete(c2);
        let live: Vec<CRef> = db.iter().collect();
        assert_eq!(live, vec![c1, c3]);
        assert!(db.is_deleted(c2));
        assert_eq!(db.num_learnt(), 1);
        assert!(db.wasted() > 0);
    }

    #[test]
    fn collect_compacts_and_reports_moves() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&lits(&[0, 2]), false);
        let c2 = db.add(&lits(&[4, 6, 8]), true);
        let c3 = db.add(&lits(&[10, 12]), true);
        db.delete(c1);
        let mut moves = Vec::new();
        db.collect(|old, new| moves.push((old, new)));
        assert_eq!(moves.len(), 2);
        // c2 moves to the front, c3 follows.
        let (old2, new2) = moves[0];
        let (old3, new3) = moves[1];
        assert_eq!(old2, c2);
        assert_eq!(old3, c3);
        assert_eq!(db.lits(new2), &lits(&[4, 6, 8])[..]);
        assert_eq!(db.lits(new3), &lits(&[10, 12])[..]);
        assert_eq!(db.wasted(), 0);
    }

    #[test]
    fn imported_flag_survives_collect_and_delete_decrements() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&lits(&[0, 2]), true);
        let c2 = db.add(&lits(&[4, 6]), true);
        db.mark_imported(c2);
        db.mark_imported(c2); // idempotent
        assert_eq!(db.num_imported(), 1);
        assert!(db.is_imported(c2));
        assert!(!db.is_imported(c1));
        db.delete(c1);
        let mut relocated = CRef::UNDEF;
        db.collect(|old, new| {
            if old == c2 {
                relocated = new;
            }
        });
        assert!(db.is_imported(relocated));
        assert_eq!(db.num_imported(), 1);
        db.delete(relocated);
        assert_eq!(db.num_imported(), 0);
        assert_eq!(db.num_learnt(), 0);
    }

    #[test]
    fn scale_learnt_activities_skips_problem_and_deleted_clauses() {
        let mut db = ClauseDb::new();
        let problem = db.add(&lits(&[0, 2]), false);
        let kept = db.add(&lits(&[4, 6, 8]), true);
        let gone = db.add(&lits(&[10, 12]), true);
        for c in [problem, kept, gone] {
            db.set_activity(c, 4.0);
        }
        db.delete(gone);
        db.scale_learnt_activities(0.25);
        assert_eq!(db.activity(problem), 4.0);
        assert_eq!(db.activity(kept), 1.0);
        assert_eq!(db.activity(gone), 4.0);
    }

    #[test]
    fn lits_mut_allows_reordering() {
        let mut db = ClauseDb::new();
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let c = Var::new(2).negative();
        let cr = db.add(&[a, b, c], false);
        db.lits_mut(cr).swap(0, 2);
        assert_eq!(db.lits(cr), &[c, b, a]);
    }
}
