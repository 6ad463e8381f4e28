//! DRAT proof logging and a forward RUP checker.
//!
//! When proof logging is enabled, the solver records every derived clause
//! (learnt clauses, root-level strengthenings of input clauses, and the
//! final empty clause on unsatisfiability) plus learnt-clause deletions.
//! The resulting sequence is a standard DRAT proof and can be validated by
//! [`check`] — an independent forward reverse-unit-propagation checker.
//!
//! Scope: pure [`check`] is sound for *propositional* solving. Clauses
//! learnt from background-theory conflicts are theory-valid but not
//! RUP-derivable from the CNF alone, so the solver records them as
//! [`ProofStep::Lemma`] steps: `check` rejects them (fail closed), while
//! [`check_with_lemmas`] accepts a lemma exactly when a caller-supplied
//! validator — e.g. the standalone EOG cycle checker in `zpre-smt`, which
//! re-derives a cycle from the clause — vouches for it independently, and
//! then treats it as an axiom for the remaining RUP derivation.

use crate::lit::{LBool, Lit};

/// One proof step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause asserted to be redundant (RUP) w.r.t. the current database.
    Add(Vec<Lit>),
    /// A clause removed from the database.
    Delete(Vec<Lit>),
    /// A theory lemma: valid in the background theory but, in general, not
    /// RUP-derivable from the CNF. Only [`check_with_lemmas`] accepts these,
    /// and only after an external check of its theory validity.
    Lemma(Vec<Lit>),
}

/// An in-memory DRAT proof.
#[derive(Clone, Debug, Default)]
pub struct Proof {
    /// The steps, in derivation order.
    pub steps: Vec<ProofStep>,
}

impl Proof {
    /// Appends an addition step.
    pub fn add(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Appends a deletion step.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// Appends a theory-lemma step.
    pub fn lemma(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Lemma(lits.to_vec()));
    }

    /// `true` once the proof derives the empty clause.
    pub fn derives_empty(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty()))
    }
}

/// Forward RUP check of `proof` against the original `cnf`.
///
/// Returns `Ok(())` when every addition is RUP with respect to the clauses
/// available at that point and the proof ends in the empty clause;
/// `Err(step_index)` names the first failing step. Any [`ProofStep::Lemma`]
/// fails closed — propositional checking cannot justify theory lemmas; use
/// [`check_with_lemmas`] with an external validator instead.
pub fn check(cnf: &[Vec<Lit>], proof: &Proof) -> Result<(), usize> {
    check_with_lemmas(cnf, proof, |_| false)
}

/// Forward RUP check that admits theory lemmas via an external validator.
///
/// Every [`ProofStep::Lemma`] clause is passed to `lemma_ok`; when the
/// validator vouches for it (i.e. re-derives its theory validity
/// independently), the clause joins the database as an axiom for subsequent
/// RUP steps — otherwise the check fails at that step. Everything else
/// behaves exactly like [`check`].
pub fn check_with_lemmas(
    cnf: &[Vec<Lit>],
    proof: &Proof,
    mut lemma_ok: impl FnMut(&[Lit]) -> bool,
) -> Result<(), usize> {
    let mut db: Vec<Vec<Lit>> = cnf.to_vec();
    let mut derived_empty = false;
    for (i, step) in proof.steps.iter().enumerate() {
        match step {
            ProofStep::Add(clause) => {
                if !is_rup(&db, clause) {
                    return Err(i);
                }
                if clause.is_empty() {
                    derived_empty = true;
                }
                db.push(clause.clone());
            }
            ProofStep::Lemma(clause) => {
                if !lemma_ok(clause) {
                    return Err(i);
                }
                db.push(clause.clone());
            }
            ProofStep::Delete(clause) => {
                let mut sorted = clause.clone();
                sorted.sort_unstable();
                if let Some(at) = db.iter().position(|c| {
                    let mut cs = c.clone();
                    cs.sort_unstable();
                    cs == sorted
                }) {
                    db.swap_remove(at);
                }
                // Deleting an absent clause is tolerated (as real DRAT
                // checkers do) — it cannot make the proof unsound.
            }
        }
    }
    if derived_empty {
        Ok(())
    } else {
        Err(proof.steps.len())
    }
}

/// Is `clause` derivable by reverse unit propagation from `db`?
fn is_rup(db: &[Vec<Lit>], clause: &[Lit]) -> bool {
    // Assignment under "assume the negation of the clause".
    let max_var = db
        .iter()
        .chain(std::iter::once(&clause.to_vec()))
        .flat_map(|c| c.iter())
        .map(|l| l.var().index())
        .max()
        .unwrap_or(0);
    let mut assign = vec![LBool::Undef; max_var + 1];
    let set = |assign: &mut Vec<LBool>, l: Lit| -> bool {
        // Returns false on conflict.
        match assign[l.var().index()] {
            LBool::Undef => {
                assign[l.var().index()] = LBool::from_bool(l.sign());
                true
            }
            v => v.is_true() == l.sign(),
        }
    };
    for &l in clause {
        if !set(&mut assign, !l) {
            return true; // the negated clause is itself contradictory
        }
    }
    // Naive unit propagation to fixpoint.
    loop {
        let mut progressed = false;
        for c in db {
            let mut unassigned: Option<Lit> = None;
            let mut satisfied = false;
            let mut unit = true;
            for &l in c {
                match assign[l.var().index()].xor_sign(!l.sign()) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => {
                        if unassigned.is_some() {
                            unit = false;
                            break;
                        }
                        unassigned = Some(l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match (unit, unassigned) {
                (true, None) => return true, // conflict: clause falsified
                (true, Some(l)) => {
                    if !set(&mut assign, l) {
                        return true;
                    }
                    progressed = true;
                }
                _ => {}
            }
        }
        if !progressed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(i: i64) -> Lit {
        let v = Var::new(i.unsigned_abs() as u32 - 1);
        v.lit(i > 0)
    }

    fn cl(ls: &[i64]) -> Vec<Lit> {
        ls.iter().map(|&i| lit(i)).collect()
    }

    #[test]
    fn rup_detects_trivial_resolvent() {
        // (a ∨ b), (¬a ∨ b) ⊢ (b) by RUP.
        let db = vec![cl(&[1, 2]), cl(&[-1, 2])];
        assert!(is_rup(&db, &cl(&[2])));
        assert!(!is_rup(&db, &cl(&[1])));
    }

    #[test]
    fn rup_empty_clause_needs_conflicting_units() {
        let db = vec![cl(&[1]), cl(&[-1])];
        assert!(is_rup(&db, &[]));
        let db2 = vec![cl(&[1, 2])];
        assert!(!is_rup(&db2, &[]));
    }

    #[test]
    fn full_proof_roundtrip() {
        // UNSAT: (a∨b)(a∨¬b)(¬a∨b)(¬a∨¬b). Proof: derive (a), then ⊥.
        let cnf = vec![cl(&[1, 2]), cl(&[1, -2]), cl(&[-1, 2]), cl(&[-1, -2])];
        let mut proof = Proof::default();
        proof.add(&cl(&[1]));
        proof.add(&[]);
        assert_eq!(check(&cnf, &proof), Ok(()));
        assert!(proof.derives_empty());
    }

    #[test]
    fn bogus_step_is_rejected() {
        let cnf = vec![cl(&[1, 2])];
        let mut proof = Proof::default();
        proof.add(&cl(&[1])); // not RUP from (a ∨ b)
        assert_eq!(check(&cnf, &proof), Err(0));
    }

    #[test]
    fn incomplete_proof_is_rejected() {
        let cnf = vec![cl(&[1]), cl(&[-1])];
        let proof = Proof::default(); // no steps at all
        assert!(check(&cnf, &proof).is_err());
    }

    #[test]
    fn deletions_are_applied() {
        // After deleting (¬a ∨ b), the clause (b) is no longer RUP from the
        // remaining database {(a ∨ b)} alone — the checker must reject the
        // second addition, proving deletions really remove clauses.
        let cnf = vec![cl(&[1, 2]), cl(&[-1, 2])];
        let mut with_delete = Proof::default();
        with_delete.delete(&cl(&[-1, 2]));
        with_delete.add(&cl(&[2]));
        assert_eq!(check(&cnf, &with_delete), Err(1));
        // Without the deletion the same addition is accepted (though the
        // proof is still incomplete — no empty clause).
        let mut without_delete = Proof::default();
        without_delete.add(&cl(&[2]));
        assert_eq!(check(&cnf, &without_delete), Err(1));
    }

    #[test]
    fn plain_check_rejects_lemmas() {
        // The lemma (¬a) would make the proof go through, but `check` must
        // fail closed on theory lemmas it cannot justify propositionally.
        let cnf = vec![cl(&[1, 2]), cl(&[1, -2])];
        let mut proof = Proof::default();
        proof.lemma(&cl(&[-1]));
        proof.add(&[]);
        assert_eq!(check(&cnf, &proof), Err(0));
    }

    #[test]
    fn validated_lemma_acts_as_axiom() {
        // CNF alone is SAT; with the theory lemma (¬a) it becomes UNSAT and
        // the empty clause is RUP. The validator sees exactly the lemma.
        let cnf = vec![cl(&[1, 2]), cl(&[1, -2])];
        let mut proof = Proof::default();
        proof.lemma(&cl(&[-1]));
        proof.add(&[]);
        let mut seen = Vec::new();
        let result = check_with_lemmas(&cnf, &proof, |c| {
            seen.push(c.to_vec());
            true
        });
        assert_eq!(result, Ok(()));
        assert_eq!(seen, vec![cl(&[-1])]);
    }

    #[test]
    fn refused_lemma_fails_at_its_step() {
        let cnf = vec![cl(&[1, 2]), cl(&[1, -2])];
        let mut proof = Proof::default();
        proof.add(&cl(&[1])); // RUP: resolvent of the two input clauses
        proof.lemma(&cl(&[-1]));
        proof.add(&[]);
        assert_eq!(check_with_lemmas(&cnf, &proof, |_| false), Err(1));
    }
}
