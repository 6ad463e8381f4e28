//! Standalone re-checker for order-theory lemmas.
//!
//! Certification must not trust the solver's conflict analysis or the
//! theory's incremental cycle search: a theory lemma is accepted only if
//! this module re-derives its validity from the clause alone. The argument
//! is elementary: assume the negation of the clause. Then every negated
//! literal is true, and by the atom semantics (`v ↦ (a, b)`: true ⇒ `a→b`,
//! false ⇒ `b→a`) each one asserts an edge of the event order graph; the
//! fixed program-order edges are always present. If those edges contain a
//! directed cycle, the assignment admits no total order of the events —
//! contradiction — so the clause holds in the theory.
//!
//! [`check_lemma`] therefore accepts a clause exactly when
//!
//! 1. the negation of every literal is an ordering-atom literal, and
//! 2. the edges those literals assert, plus the fixed edges, contain a
//!    directed cycle.
//!
//! The fixed edges are acyclic (`OrderTheory::add_fixed_edge` refuses a
//! cycle), so every cycle uses an asserted edge `a→b` and closes through a
//! path `b ⇝ a`; the checker searches for such a path from each asserted
//! edge. It walks [`FixedEdges`], its own adjacency list built once per
//! certificate from [`OrderTheory::fixed_edges`], and shares no code with
//! the theory's [`crate::OrderGraph`].

use crate::order::{NodeId, OrderTheory};
use zpre_sat::{Lit, Var};

/// The fixed program-order edges as successor lists, indexed by node.
#[derive(Clone, Debug, Default)]
pub struct FixedEdges {
    succ: Vec<Vec<NodeId>>,
}

impl FixedEdges {
    /// The fixed edges of `theory`. Post-solve the theory has backtracked
    /// to the root, so these are the program-order edges alone.
    pub fn of(theory: &OrderTheory) -> FixedEdges {
        let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); theory.num_nodes()];
        for (a, b) in theory.fixed_edges() {
            succ[a.0 as usize].push(b);
        }
        FixedEdges { succ }
    }

    fn successors(&self, u: NodeId) -> &[NodeId] {
        self.succ.get(u.0 as usize).map_or(&[], Vec::as_slice)
    }
}

/// Re-checks one lemma clause against caller-supplied atom semantics.
///
/// `atom_of` maps a solver variable to its registered ordered pair (`None`
/// when the variable is not an ordering atom). Returns a human-readable
/// reason on rejection.
pub fn check_lemma(
    clause: &[Lit],
    atom_of: impl Fn(Var) -> Option<(NodeId, NodeId)>,
    fixed: &FixedEdges,
) -> Result<(), String> {
    // The edges the clause's negation asserts: ¬l holds, so a positive `l`
    // over `(a, b)` asserts `b→a` and a negative one `a→b`.
    let mut asserted = Vec::with_capacity(clause.len());
    for &l in clause {
        let Some((a, b)) = atom_of(l.var()) else {
            return Err(format!(
                "literal {l:?} is over variable {}, which is not an ordering atom",
                l.var().index()
            ));
        };
        asserted.push(if l.sign() { (b, a) } else { (a, b) });
    }
    let nodes = asserted
        .iter()
        .map(|&(a, b)| a.0.max(b.0) as usize + 1)
        .fold(fixed.succ.len(), usize::max);
    let mut seen = vec![false; nodes];
    let mut stack = Vec::new();
    for &(a, b) in &asserted {
        // Does b reach a? Then a→b closes a cycle.
        seen.fill(false);
        stack.clear();
        stack.push(b);
        while let Some(u) = stack.pop() {
            if u == a {
                return Ok(());
            }
            if std::mem::replace(&mut seen[u.0 as usize], true) {
                continue;
            }
            stack.extend_from_slice(fixed.successors(u));
            stack.extend(asserted.iter().filter(|e| e.0 == u).map(|e| e.1));
        }
    }
    Err(format!(
        "the {} edges the negated clause asserts close no cycle with the fixed edges",
        asserted.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A theory over `n` nodes with the given fixed edges and atoms
    /// `Var(i) ↦ atoms[i]`, checked the way certification does.
    fn check(
        n: u32,
        fixed: &[(u32, u32)],
        atoms: &[(u32, u32)],
        clause: &[Lit],
    ) -> Result<(), String> {
        let mut t = OrderTheory::new();
        for _ in 0..n {
            t.add_node();
        }
        for &(a, b) in fixed {
            assert!(t.add_fixed_edge(NodeId(a), NodeId(b)));
        }
        for (i, &(a, b)) in atoms.iter().enumerate() {
            t.register_atom(Var::new(i as u32), NodeId(a), NodeId(b));
        }
        check_lemma(clause, |v| t.atom_nodes(v), &FixedEdges::of(&t))
    }

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn valid_two_cycle_is_accepted() {
        // A cycle of atoms alone: ¬v0 ∨ ¬v1 with v0 ↦ a→b and v1 ↦ b→a.
        let clause = [v(0).negative(), v(1).negative()];
        assert_eq!(check(2, &[], &[(0, 1), (1, 0)], &clause), Ok(()));
        // Either polarity works: ¬v0 ∨ v1 with v1 ↦ a→b asserts b→a.
        let clause = [v(0).negative(), v(1).positive()];
        assert_eq!(check(2, &[], &[(0, 1), (0, 1)], &clause), Ok(()));
    }

    #[test]
    fn fixed_edge_closes_the_cycle() {
        // a→b (v0) then fixed b→c→a: the clause ¬v0 alone is valid.
        let clause = [v(0).negative()];
        assert_eq!(check(3, &[(1, 2), (2, 0)], &[(0, 1)], &clause), Ok(()));
    }

    #[test]
    fn forged_fixed_edge_is_rejected() {
        // a→b (v0) would need b→a, which is neither asserted nor fixed.
        let clause = [v(0).negative()];
        assert!(check(2, &[], &[(0, 1)], &clause).is_err());
    }

    #[test]
    fn misoriented_tag_is_rejected() {
        // With fixed b→a, ¬v0 closes a cycle but v0 asserts b→a, a parallel
        // copy of the fixed edge: no cycle.
        assert_eq!(check(2, &[(1, 0)], &[(0, 1)], &[v(0).negative()]), Ok(()));
        assert!(check(2, &[(1, 0)], &[(0, 1)], &[v(0).positive()]).is_err());
    }

    #[test]
    fn clause_tag_mismatch_is_rejected() {
        // ¬v0 is valid on its own, but an unrelated literal over a variable
        // that is not an atom smuggled into the clause is refused.
        let clause = [v(0).negative(), v(7).positive()];
        let err = check(2, &[(1, 0)], &[(0, 1)], &clause).unwrap_err();
        assert!(err.contains("not an ordering atom"), "{err}");
    }

    #[test]
    fn unchained_cycle_is_rejected() {
        // The asserted a→b and b→c chain with fixed c→d, but nothing leads
        // back to a: a path, not a cycle.
        let clause = [v(0).negative(), v(1).negative()];
        assert!(check(4, &[(2, 3)], &[(0, 1), (1, 2)], &clause).is_err());
    }

    #[test]
    fn empty_cycle_is_rejected() {
        // The empty clause asserts no edge, and the fixed edges are acyclic.
        assert!(check(2, &[(0, 1)], &[(0, 1)], &[]).is_err());
    }

    /// Every lemma a proof-logging solve records passes the checker.
    #[test]
    fn logged_lemmas_from_a_solve_check_out() {
        use zpre_sat::{NoGuide, ProofStep, SolveResult, Solver};
        // Fixed a→b→c, and atoms placing a fourth event d that the clauses
        // force onto a cycle, so the solver must refute them with theory
        // conflicts and propagations.
        let mut t = OrderTheory::new();
        let n: Vec<NodeId> = (0..4).map(|_| t.add_node()).collect();
        t.add_fixed_edge(n[0], n[1]);
        t.add_fixed_edge(n[1], n[2]);
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, NoGuide);
        s.enable_proof_logging();
        let atom = |s: &mut Solver<OrderTheory>, a: usize, b: usize| {
            let x = s.new_var();
            s.theory.register_atom(x, n[a], n[b]);
            s.mark_theory_var(x);
            x
        };
        let cd = atom(&mut s, 2, 3);
        let da = atom(&mut s, 3, 0);
        let db = atom(&mut s, 3, 1);
        // The reverse atom of `db`, left free for the theory to propagate.
        atom(&mut s, 1, 3);
        // d after c, and d before a or before b: every choice cycles.
        s.add_clause(&[cd.positive()]);
        s.add_clause(&[da.positive(), db.positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.take_proof().expect("proof logging on");
        let fixed = FixedEdges::of(&s.theory);
        let mut lemmas = 0;
        for step in &proof.steps {
            if let ProofStep::Lemma(clause) = step {
                lemmas += 1;
                assert_eq!(
                    check_lemma(clause, |v| s.theory.atom_nodes(v), &fixed),
                    Ok(()),
                    "{clause:?}"
                );
            }
        }
        assert!(lemmas > 0, "the refutation logged no theory lemma");
    }
}
