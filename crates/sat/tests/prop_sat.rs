//! Property tests: the CDCL solver against brute-force enumeration.

use proptest::prelude::*;
use zpre_sat::{Lit, SolveResult, Solver, Var};

/// Brute-force satisfiability by enumerating all 2^n assignments.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    assert!(num_vars <= 16);
    'outer: for m in 0u32..(1 << num_vars) {
        for c in clauses {
            let sat = c
                .iter()
                .any(|l| ((m >> l.var().index()) & 1 == 1) == l.sign());
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn arb_clause(num_vars: usize, max_len: usize) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec((0..num_vars, any::<bool>()), 1..=max_len).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, s)| Var::new(v as u32).lit(s))
            .collect()
    })
}

fn arb_formula() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (3usize..=10).prop_flat_map(|n| {
        prop::collection::vec(arb_clause(n, 4), 1..40).prop_map(move |cs| (n, cs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force((n, clauses) in arb_formula()) {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        let mut ok = true;
        for c in &clauses {
            ok &= s.add_clause(c);
        }
        let result = if ok { s.solve() } else { SolveResult::Unsat };
        let expected = brute_force_sat(n, &clauses);
        match result {
            SolveResult::Sat => {
                prop_assert!(expected);
                // The model must satisfy every clause.
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| s.model_value(l).is_true()));
                }
            }
            SolveResult::Unsat => prop_assert!(!expected),
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn solving_twice_is_consistent((n, clauses) in arb_formula()) {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        let mut ok = true;
        for c in &clauses {
            ok &= s.add_clause(c);
        }
        if ok {
            let r1 = s.solve();
            let r2 = s.solve();
            prop_assert_eq!(r1, r2);
        }
    }
}
