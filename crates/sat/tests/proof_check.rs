//! End-to-end DRAT proof validation: unsatisfiability proofs produced by
//! the solver are checked by the independent forward-RUP checker.

use zpre_sat::{proof, Lit, SolveResult, Solver, Var};

fn php(pigeons: usize, holes: usize) -> (Vec<Vec<Lit>>, usize) {
    let mut clauses = Vec::new();
    let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    (clauses, pigeons * holes)
}

fn solve_with_proof(clauses: &[Vec<Lit>], num_vars: usize) -> (SolveResult, zpre_sat::Proof) {
    let mut s = Solver::new();
    s.enable_proof_logging();
    for _ in 0..num_vars {
        s.new_var();
    }
    let mut ok = true;
    for c in clauses {
        ok &= s.add_clause(c);
    }
    let result = if ok { s.solve() } else { SolveResult::Unsat };
    (result, s.take_proof().expect("logging enabled"))
}

#[test]
fn pigeonhole_proofs_validate() {
    for (p, h) in [(2, 1), (3, 2), (4, 3), (5, 4)] {
        let (clauses, nv) = php(p, h);
        let (result, pr) = solve_with_proof(&clauses, nv);
        assert_eq!(result, SolveResult::Unsat, "php({p},{h})");
        assert!(pr.derives_empty(), "php({p},{h}) proof incomplete");
        assert_eq!(
            proof::check(&clauses, &pr),
            Ok(()),
            "php({p},{h}) proof invalid"
        );
    }
}

#[test]
fn xor_cycle_proof_validates() {
    // Odd xor cycle — unsat with small clauses.
    let v: Vec<Var> = (0..3).map(Var::new).collect();
    let mut clauses = Vec::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0)] {
        clauses.push(vec![v[a].positive(), v[b].positive()]);
        clauses.push(vec![v[a].negative(), v[b].negative()]);
    }
    let (result, pr) = solve_with_proof(&clauses, 3);
    assert_eq!(result, SolveResult::Unsat);
    assert_eq!(proof::check(&clauses, &pr), Ok(()));
}

#[test]
fn random_unsat_instances_produce_valid_proofs() {
    // Deterministic pseudo-random unsat instances: a random 3-SAT core
    // plus all eight sign patterns over one triple (guaranteed unsat).
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..10 {
        let n = 8 + (round % 4);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        // All sign patterns over vars 0,1,2 — unsat by itself, but buried
        // among random clauses to make the solver work.
        for mask in 0..8u32 {
            clauses.push(
                (0..3)
                    .map(|i| Var::new(i).lit(mask >> i & 1 == 1))
                    .collect(),
            );
        }
        for _ in 0..(n * 3) {
            let mut c = Vec::new();
            while c.len() < 3 {
                let v = Var::new((next() % n as u64) as u32);
                let l = v.lit(next() & 1 == 1);
                if !c.contains(&l) && !c.contains(&!l) {
                    c.push(l);
                }
            }
            clauses.push(c);
        }
        let (result, pr) = solve_with_proof(&clauses, n);
        assert_eq!(result, SolveResult::Unsat, "round {round}");
        assert_eq!(proof::check(&clauses, &pr), Ok(()), "round {round}");
    }
}

#[test]
fn sat_instances_never_derive_empty() {
    let v: Vec<Var> = (0..4).map(Var::new).collect();
    let clauses = vec![
        vec![v[0].positive(), v[1].positive()],
        vec![v[2].negative(), v[3].positive()],
    ];
    let (result, pr) = solve_with_proof(&clauses, 4);
    assert_eq!(result, SolveResult::Sat);
    assert!(!pr.derives_empty());
}
