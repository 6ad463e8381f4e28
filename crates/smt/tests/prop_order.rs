//! Property tests for the event-order theory: incremental cycle detection
//! against an offline reachability check, undo correctness, and the
//! CDCL(T) integration on random orientation problems.

use proptest::prelude::*;
use zpre_sat::{SolveResult, Solver, Theory, TheoryOut, Var};
use zpre_smt::{NodeId, OrderTheory};

/// Offline cycle check over an edge list.
fn has_cycle(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for &(a, b) in edges {
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(x) = queue.pop() {
        seen += 1;
        for &y in &adj[x] {
            indeg[y] -= 1;
            if indeg[y] == 0 {
                queue.push(y);
            }
        }
    }
    seen != n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Asserting random edges one by one: the theory reports a conflict on
    /// exactly the first edge that closes a cycle.
    #[test]
    fn incremental_cycle_detection_matches_offline(
        n in 2usize..10,
        edge_pairs in prop::collection::vec((0usize..10, 0usize..10), 1..25),
    ) {
        let mut theory = OrderTheory::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| theory.add_node()).collect();
        let edges: Vec<(usize, usize)> = edge_pairs
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .collect();
        let mut accepted: Vec<(usize, usize)> = Vec::new();
        let mut out = TheoryOut::default();
        theory.new_level();
        for (i, &(a, b)) in edges.iter().enumerate() {
            let var = Var::new(i as u32);
            theory.register_atom(var, nodes[a], nodes[b]);
            let result = theory.assert_lit(var.positive(), &mut out);
            let mut candidate = accepted.clone();
            candidate.push((a, b));
            let offline_cyclic = has_cycle(n, &candidate);
            match result {
                Ok(()) => {
                    prop_assert!(!offline_cyclic, "theory accepted a cycle-closing edge {a}->{b}");
                    accepted.push((a, b));
                }
                Err(conflict) => {
                    prop_assert!(offline_cyclic, "theory rejected an acyclic edge {a}->{b}");
                    // The conflict explanation names currently-true literals,
                    // including the newly asserted one.
                    prop_assert!(conflict.lits.contains(&var.positive()));
                }
            }
        }
    }

    /// Backtracking fully undoes edges: after undo, reachability equals the
    /// pre-level state.
    #[test]
    fn backtracking_restores_reachability(
        n in 2usize..8,
        base_edges in prop::collection::vec((0usize..8, 0usize..8), 0..8),
        level_edges in prop::collection::vec((0usize..8, 0usize..8), 1..8),
    ) {
        let mut theory = OrderTheory::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| theory.add_node()).collect();
        // Base edges, acyclic subset only.
        let mut kept = Vec::new();
        for (a, b) in base_edges {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let mut cand = kept.clone();
            cand.push((a, b));
            if !has_cycle(n, &cand) {
                theory.add_fixed_edge(nodes[a], nodes[b]);
                kept.push((a, b));
            }
        }
        let before: Vec<Vec<bool>> = (0..n)
            .map(|i| (0..n).map(|j| theory.reachable(nodes[i], nodes[j])).collect())
            .collect();
        // One level of atom assertions, then undo.
        theory.new_level();
        let mut out = TheoryOut::default();
        for (i, (a, b)) in level_edges.into_iter().enumerate() {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let var = Var::new(1000 + i as u32);
            theory.register_atom(var, nodes[a], nodes[b]);
            let _ = theory.assert_lit(var.positive(), &mut out);
        }
        theory.backtrack_to(0);
        let after: Vec<Vec<bool>> = (0..n)
            .map(|i| (0..n).map(|j| theory.reachable(nodes[i], nodes[j])).collect())
            .collect();
        prop_assert_eq!(before, after);
    }

    /// CDCL(T) with free orientation atoms over a random node set is always
    /// SAT (any DAG orientation exists), and the model is acyclic.
    #[test]
    fn free_orientations_are_satisfiable(
        n in 2usize..7,
        pairs in prop::collection::vec((0usize..7, 0usize..7), 1..12),
    ) {
        let mut theory = OrderTheory::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| theory.add_node()).collect();
        let mut solver: Solver<OrderTheory> = Solver::with_parts(theory, zpre_sat::NoGuide);
        let mut atoms = Vec::new();
        for (a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let var = solver.new_var();
            solver.theory.register_atom(var, nodes[a], nodes[b]);
            solver.mark_theory_var(var);
            atoms.push((var, a, b));
        }
        prop_assert_eq!(solver.solve(), SolveResult::Sat);
        // Model orientation must be acyclic.
        let edges: Vec<(usize, usize)> = atoms
            .iter()
            .map(|&(v, a, b)| {
                if solver.model_var_value(v).is_true() {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        prop_assert!(!has_cycle(n, &edges));
    }
}
