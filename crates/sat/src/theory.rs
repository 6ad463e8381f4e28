//! The DPLL(T) theory interface.
//!
//! The CDCL core drives a single background theory through this trait. The
//! protocol mirrors the classic lazy-SMT integration:
//!
//! - the solver forwards every newly assigned *theory atom* (a variable the
//!   client marked with [`crate::Solver::mark_theory_var`]) to
//!   [`Theory::assert_lit`] in trail order;
//! - the theory may *propagate* further atoms by pushing them into
//!   [`TheoryOut::propagations`], recording an eager explanation for each;
//! - the theory may report a *conflict*: a set of currently-true literals
//!   whose conjunction is theory-inconsistent. The solver turns it into the
//!   conflicting clause `¬l₁ ∨ … ∨ ¬lₖ` and runs first-UIP analysis on it;
//! - decision levels are mirrored with [`Theory::new_level`] /
//!   [`Theory::backtrack_to`] so the theory can undo assertions;
//! - [`Theory::explain`] must return, for any literal the theory propagated
//!   and that is still on the trail, the antecedent literals (all true,
//!   asserted before it) that imply it.
//!
//! A theory lemma is just its clause: the solver logs each conflict and
//! explanation clause as a [`crate::ProofStep::Lemma`] and ships conflict
//! clauses to portfolio peers as they are, and the theory keeps no record
//! of them. Whoever needs a lemma's justification re-derives it from the
//! clause (for the order theory, `zpre_smt::certcheck`).

use crate::lit::Lit;

/// A theory conflict: `lits` are all currently assigned true and jointly
/// inconsistent in the theory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TheoryConflict {
    /// The inconsistent set of true literals.
    pub lits: Vec<Lit>,
}

/// Out-parameters of a theory callback.
#[derive(Debug, Default)]
pub struct TheoryOut {
    /// Literals the theory wants the solver to assign true.
    pub propagations: Vec<Lit>,
}

impl TheoryOut {
    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.propagations.clear();
    }
}

/// A background theory cooperating with the CDCL core.
pub trait Theory {
    /// Notifies the theory that `lit` (a marked theory atom) became true.
    ///
    /// Returns `Err` on an immediate theory conflict. May push propagations.
    fn assert_lit(&mut self, lit: Lit, out: &mut TheoryOut) -> Result<(), TheoryConflict>;

    /// A new decision level was opened.
    fn new_level(&mut self);

    /// Backtracks to decision `level`, undoing all assertions made at higher
    /// levels. `level` counts from 0 (the root level).
    fn backtrack_to(&mut self, level: u32);

    /// Explains a literal previously pushed into [`TheoryOut::propagations`]:
    /// returns the antecedent literals (all true, asserted strictly before
    /// `lit`) whose conjunction implies `lit`. The slice borrows the
    /// theory's own storage, so conflict analysis copies nothing it does not
    /// keep.
    fn explain(&mut self, lit: Lit) -> &[Lit];

    /// O(1) estimate of the theory's heap footprint in bytes, added to
    /// [`crate::Solver::memory_bytes`] so a memory cap sees theory state.
    /// Stateless theories keep the default of 0.
    fn memory_bytes(&self) -> u64 {
        0
    }

    /// Called when the Boolean assignment is complete and no conflict was
    /// found; the theory gets a last chance to object. Eager theories that
    /// check on every assertion can use the default no-op.
    fn final_check(&mut self, out: &mut TheoryOut) -> Result<(), TheoryConflict> {
        let _ = out;
        Ok(())
    }
}

/// The trivial theory: accepts everything. Used for pure-SAT solving.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTheory;

impl Theory for NoTheory {
    fn assert_lit(&mut self, _lit: Lit, _out: &mut TheoryOut) -> Result<(), TheoryConflict> {
        Ok(())
    }
    fn new_level(&mut self) {}
    fn backtrack_to(&mut self, _level: u32) {}
    fn explain(&mut self, _lit: Lit) -> &[Lit] {
        unreachable!("NoTheory never propagates, so it is never asked to explain")
    }
}
