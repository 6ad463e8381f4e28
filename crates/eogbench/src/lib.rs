//! # zpre-eog-bench — microbenchmarks for the incremental EOG engine
//!
//! Drives [`zpre_smt::OrderGraph`] directly (no SAT solver, no encoder)
//! over synthetic event-order-graph shapes, in both engine modes:
//!
//! - `incremental` — the topological-level two-way search;
//! - `full-dfs` — the pre-existing per-assertion full DFS, kept as the
//!   ablation reference behind [`OrderGraph::set_force_full_dfs`].
//!
//! Four shapes cover the structures the order theory actually sees:
//! `chain` (program order inside one thread), `grid` (per-thread chains
//! cross-linked by synchronisation), `random-dag` (dense interference
//! orderings), and `near-cycle` (an adversarial mix where many inserted
//! edges close or almost close a cycle). Every scenario interleaves
//! insertions with decision levels and backtracking, mirroring how the
//! DPLL(T) loop exercises the engine.
//!
//! All randomness comes from a seeded LCG so runs are reproducible; the
//! `eog-bench` binary appends one NDJSON line per run to `BENCH_EOG.json`
//! to keep a perf trajectory across commits.

#![warn(missing_docs)]

use std::time::Instant;

use zpre_obs::ndjson::{Dec, Obj};
use zpre_smt::{CycleStats, NodeId, OrderGraph};

/// Deterministic 64-bit LCG (same constants as the solver's phase RNG).
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-ish value in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() >> 16) as usize % n
    }
}

/// Synthetic EOG shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One long program-order chain, edges inserted in shuffled order.
    Chain,
    /// √n × √n grid: right and down edges, shuffled.
    Grid,
    /// Random DAG: ~4·n forward edges over a fixed node order.
    RandomDag,
    /// Chain plus frequent back-edges that close a cycle and are rejected.
    NearCycle,
}

impl Shape {
    /// All shapes, in display order.
    pub const ALL: [Shape; 4] = [
        Shape::Chain,
        Shape::Grid,
        Shape::RandomDag,
        Shape::NearCycle,
    ];

    /// Stable display name (used in JSON and bench IDs).
    pub fn name(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Grid => "grid",
            Shape::RandomDag => "random-dag",
            Shape::NearCycle => "near-cycle",
        }
    }

    /// Edge list for `nodes` nodes, shuffled deterministically by `seed`.
    /// Entries are `(from, to, expect_cycle_possible)`.
    pub fn edges(self, nodes: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = Lcg::new(seed);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        match self {
            Shape::Chain => {
                for i in 0..nodes.saturating_sub(1) {
                    edges.push((i, i + 1));
                }
            }
            Shape::Grid => {
                let k = (nodes as f64).sqrt() as usize;
                let k = k.max(2);
                for r in 0..k {
                    for c in 0..k {
                        let id = r * k + c;
                        if c + 1 < k {
                            edges.push((id, id + 1));
                        }
                        if r + 1 < k {
                            edges.push((id, id + k));
                        }
                    }
                }
            }
            Shape::RandomDag => {
                for _ in 0..nodes * 4 {
                    let a = rng.below(nodes);
                    let b = rng.below(nodes);
                    if a < b {
                        edges.push((a, b));
                    }
                }
            }
            Shape::NearCycle => {
                for i in 0..nodes.saturating_sub(1) {
                    edges.push((i, i + 1));
                    // Every few chain links, a back edge that closes a cycle
                    // over a long suffix of the chain built so far.
                    if i % 4 == 3 {
                        let lo = rng.below(i + 1);
                        edges.push((i + 1, lo));
                    }
                }
            }
        }
        // Fisher–Yates shuffle; NearCycle keeps its order so every back
        // edge actually closes a cycle at insertion time.
        if self != Shape::NearCycle {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.below(i + 1));
            }
        }
        edges
    }
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Shape name.
    pub shape: &'static str,
    /// Node count.
    pub nodes: usize,
    /// `"incremental"` or `"full-dfs"`.
    pub mode: &'static str,
    /// Wall-clock milliseconds for the full insertion/undo sequence.
    pub wall_ms: f64,
    /// Edges offered to the engine.
    pub edges_tried: u64,
    /// Insertions rejected as cycle-closing.
    pub rejected: u64,
    /// Engine counters accumulated over the run.
    pub stats: CycleStats,
}

impl ScenarioResult {
    /// One NDJSON line for `BENCH_EOG.json`.
    pub fn json_line(&self, tag: &str) -> String {
        let s = &self.stats;
        Obj::new()
            .field("tag", tag)
            .field("shape", self.shape)
            .field("nodes", self.nodes)
            .field("mode", self.mode)
            .field("wall_ms", Dec(self.wall_ms))
            .field("edges_tried", self.edges_tried)
            .field("rejected", self.rejected)
            .field("checks", s.checks)
            .field("accepted_o1", s.accepted_o1)
            .field("searched", s.searched)
            .field("visited", s.visited)
            .field("promoted", s.promoted)
            .finish()
    }
}

/// Runs one scenario: builds the shape's edge list, then plays it against
/// a fresh engine with a DPLL-style assert+undo mix — every `GROUP` edges
/// open a decision level, and one level in four is backtracked (its edges
/// replayed at the next level, as a restarting solver would).
pub fn run_scenario(shape: Shape, nodes: usize, seed: u64, full_dfs: bool) -> ScenarioResult {
    const GROUP: usize = 8;
    let edges = shape.edges(nodes, seed);
    let mut rng = Lcg::new(seed ^ 0x9E3779B97F4A7C15);

    let mut g = OrderGraph::new();
    for _ in 0..nodes {
        g.add_node();
    }
    g.set_force_full_dfs(full_dfs);

    let mut tried = 0u64;
    let mut rejected = 0u64;
    let t0 = Instant::now();
    let mut level = 0u32;
    let mut i = 0;
    while i < edges.len() {
        g.new_level();
        level += 1;
        let end = (i + GROUP).min(edges.len());
        for &(a, b) in &edges[i..end] {
            tried += 1;
            if g.insert_edge(NodeId(a as u32), NodeId(b as u32), None)
                .is_err()
            {
                rejected += 1;
            }
        }
        // One level in four is undone and replayed: the same edges come
        // back at the next decision level, like a post-conflict re-assert.
        if rng.below(4) == 0 {
            level -= 1;
            g.backtrack_to(level);
        } else {
            i = end;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    ScenarioResult {
        shape: shape.name(),
        nodes,
        mode: if full_dfs { "full-dfs" } else { "incremental" },
        wall_ms,
        edges_tried: tried,
        rejected,
        stats: g.stats,
    }
}

/// The size ladder: quick mode stops at 10³, full mode reaches 10⁴.
pub fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[100, 1000]
    } else {
        &[100, 1000, 10000]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_generate_nonempty_edge_lists() {
        for shape in Shape::ALL {
            let e = shape.edges(100, 7);
            assert!(!e.is_empty(), "{}", shape.name());
            for &(a, b) in &e {
                assert!(a < 100 && b < 100);
            }
        }
    }

    #[test]
    fn near_cycle_rejects_back_edges_and_others_accept_everything() {
        for shape in Shape::ALL {
            let r = run_scenario(shape, 200, 11, false);
            assert_eq!(r.stats.checks, r.edges_tried, "{}", shape.name());
            if shape == Shape::NearCycle {
                assert!(r.rejected > 0, "near-cycle must hit rejections");
            } else {
                assert_eq!(r.rejected, 0, "{} is acyclic", shape.name());
            }
        }
    }

    #[test]
    fn both_modes_agree_on_rejection_counts() {
        for shape in Shape::ALL {
            let inc = run_scenario(shape, 150, 3, false);
            let dfs = run_scenario(shape, 150, 3, true);
            assert_eq!(inc.rejected, dfs.rejected, "{}", shape.name());
            assert_eq!(inc.edges_tried, dfs.edges_tried, "{}", shape.name());
            // The full-DFS reference never takes the O(1) accept.
            assert_eq!(dfs.stats.accepted_o1, 0);
            assert_eq!(dfs.stats.searched, dfs.stats.checks);
        }
    }

    #[test]
    fn incremental_visits_fewer_nodes_than_full_dfs_on_reverse_chains() {
        // A chain inserted back to front is the old engine's worst case:
        // the full DFS re-walks the entire existing suffix on every
        // insertion, while the incremental engine's backward pass sees a
        // node with no in-edges and accepts after constant work.
        let n = 2000u32;
        let mut visited = [0u64; 2];
        for (slot, full_dfs) in [(0usize, false), (1, true)] {
            let mut g = OrderGraph::new();
            for _ in 0..n {
                g.add_node();
            }
            g.set_force_full_dfs(full_dfs);
            for i in (0..n - 1).rev() {
                g.insert_edge(NodeId(i), NodeId(i + 1), None).unwrap();
            }
            visited[slot] = g.stats.visited;
        }
        assert!(
            visited[0] * 5 <= visited[1],
            "expected >=5x visited reduction, got {} vs {}",
            visited[0],
            visited[1]
        );
    }

    #[test]
    fn json_line_is_wellformed() {
        let r = run_scenario(Shape::Grid, 100, 1, false);
        let line = r.json_line("test");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"shape\":\"grid\""));
        assert!(line.contains("\"mode\":\"incremental\""));
    }

    /// A `--tag` value is free text: the line escapes it.
    #[test]
    fn json_line_escapes_the_tag() {
        let r = run_scenario(Shape::Chain, 100, 1, false);
        let tag = "ci\"x\\y";
        let line = r.json_line(tag);
        assert!(
            line.starts_with(r#"{"tag":"ci\"x\\y","shape":"chain","nodes":100,"#),
            "{line}"
        );
    }
}
