//! Property tests pitting the incremental cycle-detection engine against
//! an offline oracle on random interleavings of edge insertion, decision
//! levels, backtracking, and reachability queries.
//!
//! One `OrderGraph` replays each operation sequence next to a trivial
//! mirror (a plain edge list with a search of its own) and must agree with
//! it on every accept/reject decision and every reachability answer.
//! Rejections additionally return a witness path whose every edge must
//! exist in the graph at the current trail level and chain `to ⇝ from`.

use proptest::prelude::*;
use zpre_sat::Var;
use zpre_smt::{CycleEdge, NodeId, OrderGraph};

/// One step of a generated scenario.
#[derive(Clone, Debug)]
enum Op {
    /// Insert `a→b`; `tagged` selects an asserted (literal-tagged) edge
    /// vs a fixed (program-order) edge.
    Insert { a: usize, b: usize, tagged: bool },
    /// Open a decision level.
    Level,
    /// Backtrack to a fraction of the currently open levels.
    Backtrack { keep_pct: u8 },
    /// Compare reachability `a ⇝ b` between the engine and the mirror.
    Query { a: usize, b: usize },
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    // The vendored proptest stub's `prop_oneof!` is unweighted; bias the
    // mix toward insertions by repeating that arm.
    let insert = (0..n, 0..n, any::<bool>()).prop_map(|(a, b, tagged)| Op::Insert { a, b, tagged });
    prop_oneof![
        insert.clone(),
        insert.clone(),
        insert,
        Just(Op::Level),
        (0u8..100).prop_map(|keep_pct| Op::Backtrack { keep_pct }),
        (0..n, 0..n).prop_map(|(a, b)| Op::Query { a, b }),
    ]
}

/// Offline reachability on the mirror edge list.
fn mirror_reaches(n: usize, edges: &[(usize, usize)], from: usize, to: usize) -> bool {
    if from == to {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(x) = stack.pop() {
        for &y in &adj[x] {
            if y == to {
                return true;
            }
            if !seen[y] {
                seen[y] = true;
                stack.push(y);
            }
        }
    }
    false
}

/// The witness for a rejected `from→to` must chain `to ⇝ from` over edges
/// present in the graph right now.
fn check_witness(g: &OrderGraph, from: NodeId, to: NodeId, path: &[CycleEdge]) {
    if from == to {
        assert!(path.is_empty(), "self-loop witness must be empty");
        return;
    }
    assert!(!path.is_empty(), "witness for {from:?}->{to:?} empty");
    assert_eq!(path[0].from, to, "witness must start at the head");
    assert_eq!(
        path.last().unwrap().to,
        from,
        "witness must end at the tail"
    );
    for w in path.windows(2) {
        assert_eq!(w[0].to, w[1].from, "witness must chain");
    }
    for e in path {
        assert!(
            g.out_edges(e.from)
                .iter()
                .any(|o| o.to == e.to && o.tag == e.tag),
            "witness edge {:?}->{:?} not present at the current trail level",
            e.from,
            e.to
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Exact agreement between the incremental engine and the offline
    /// mirror over random insert/undo/query interleavings, with every
    /// rejection's witness validated against the live graph.
    #[test]
    fn engines_agree_on_random_scenarios(
        n in 2usize..12,
        ops in prop::collection::vec(op_strategy(12), 1..60),
    ) {
        let mut g = OrderGraph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();

        // Mirror state: current edges plus a mark stack for undo.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut marks: Vec<usize> = Vec::new();
        let mut next_var = 0u32;

        for op in ops {
            match op {
                Op::Insert { a, b, tagged } => {
                    let (a, b) = (a % n, b % n);
                    let tag = tagged.then(|| {
                        next_var += 1;
                        Var::new(next_var).positive()
                    });
                    let res = g.insert_edge(nodes[a], nodes[b], tag);
                    let cyclic = a == b || mirror_reaches(n, &edges, b, a);
                    prop_assert_eq!(res.is_ok(), !cyclic, "mirror disagrees on {}->{}", a, b);
                    match res {
                        Ok(_) => edges.push((a, b)),
                        Err(path) => check_witness(&g, nodes[a], nodes[b], &path),
                    }
                }
                Op::Level => {
                    g.new_level();
                    marks.push(edges.len());
                }
                Op::Backtrack { keep_pct } => {
                    if marks.is_empty() {
                        continue;
                    }
                    let keep = (marks.len() * keep_pct as usize) / 100;
                    g.backtrack_to(keep as u32);
                    edges.truncate(marks[keep]);
                    marks.truncate(keep);
                }
                Op::Query { a, b } => {
                    let (a, b) = (a % n, b % n);
                    prop_assert_eq!(
                        g.reaches(nodes[a], nodes[b]),
                        mirror_reaches(n, &edges, a, b),
                        "reachability {} -> {}", a, b
                    );
                }
            }
            prop_assert_eq!(g.num_edges(), edges.len());
            g.check_level_invariant().map_err(TestCaseError::Fail)?;
        }
    }

    /// The work-counter split `accepted_o1 + searched == checks` holds on
    /// every prefix of every random scenario.
    #[test]
    fn counter_split_invariant_holds(
        n in 2usize..10,
        ops in prop::collection::vec(op_strategy(10), 1..40),
    ) {
        let mut g = OrderGraph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        let mut levels = 0u32;
        for op in ops {
            match op {
                Op::Insert { a, b, tagged } => {
                    let tag = tagged.then(|| Var::new(1).positive());
                    let _ = g.insert_edge(nodes[a % n], nodes[b % n], tag);
                }
                Op::Level => {
                    g.new_level();
                    levels += 1;
                }
                Op::Backtrack { keep_pct } => {
                    let keep = levels * keep_pct as u32 / 100;
                    g.backtrack_to(keep);
                    levels = keep;
                }
                Op::Query { a, b } => {
                    let _ = g.reaches(nodes[a % n], nodes[b % n]);
                }
            }
            let s = g.stats;
            prop_assert_eq!(s.accepted_o1 + s.searched, s.checks);
        }
    }
}
