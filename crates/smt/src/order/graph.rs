//! Incremental cycle detection for the event order graph.
//!
//! The engine maintains a *pseudo-topological level* `k(v)` per node with the
//! invariant `k(u) ≤ k(v)` for every edge `u→v`, in the style of
//! Bender–Fineman–Gilbert–Tarjan ("A New Approach to Incremental Cycle
//! Detection and Related Problems", ACM TALG 2016). Inserting `a→b`:
//!
//! - if `k(a) < k(b)` the edge respects the order and is accepted in O(1) —
//!   the common case once the level structure has settled;
//! - otherwise a *backward* search from `a` walks in-edges restricted to
//!   level `k(a)`, scanning at most Δ ≈ √m arcs. Finding `b` means a path
//!   `b ⇝ a` exists and the edge closes a cycle;
//! - if the backward pass completes without finding `b` and `k(b) = k(a)`,
//!   the invariant already holds and no further work is needed: any path
//!   `b ⇝ a` would run entirely inside level `k(a)` (levels are monotone
//!   along paths) and the complete backward pass would have met it;
//! - otherwise `b` is promoted — to `k(a)` if the backward pass completed,
//!   to `k(a)+1` if it hit the Δ bound — and a *forward* search from `b`
//!   promotes successors to restore the invariant, detecting a cycle when it
//!   reaches `a` or any node the backward pass visited.
//!
//! Deviations from the published algorithm, chosen for undo-friendliness:
//! in-adjacency lists hold *all* in-edges (filtered by level at search time)
//! rather than same-level edges only, so insertion and retraction are a
//! symmetric push/pop; and levels are restored exactly on backtracking via a
//! trail of `Level` ops instead of being kept as a monotone approximation.
//! Exact restoration keeps runs reproducible regardless of the search path
//! that led to a state.
//!
//! A cycle's edge path is materialized lazily, only when an insertion is
//! rejected, from the parent pointers the two searches already left behind —
//! the accept path allocates nothing.
//!
//! Node pairs that ordering atoms range over are *interned* once
//! ([`OrderGraph::add_pair`]) into dense [`PairId`]s. The multiplicity of
//! each interned pair's edge lives in a table indexed by that id, so the
//! parallel-duplicate test on insertion and its undo are array accesses: no
//! hashing on assert or backtrack.
//!
//! Under `debug_assertions` every insertion is double-checked against the
//! retained full-DFS oracle ([`OrderGraph::dfs_path`]), which the property
//! tests also replay every operation against.

use std::cell::RefCell;

use zpre_sat::{Lists, Lit};

use super::{CycleEdge, NodeId};

/// An out-edge: target node and the asserting literal (`None` = fixed edge).
#[derive(Copy, Clone, Debug)]
pub struct OutEdge {
    /// Target node.
    pub to: NodeId,
    /// The literal whose truth asserts the edge; `None` for fixed edges.
    pub tag: Option<Lit>,
}

/// An in-edge: source node and the asserting literal (`None` = fixed edge).
#[derive(Copy, Clone, Debug)]
pub struct InEdge {
    /// Source node.
    pub from: NodeId,
    /// The literal whose truth asserts the edge; `None` for fixed edges.
    pub tag: Option<Lit>,
}

/// Dense id of an interned ordered node pair `(a, b)`. Pairs are interned
/// in both directions at once: `p ^ 1` is the id of `(b, a)`.
pub type PairId = u32;

/// Marks the absence of an interned pair.
pub(crate) const NO_PAIR: PairId = PairId::MAX;

/// Work counters for cycle checking. `accepted_o1 + searched == checks`
/// always holds.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Edge insertions checked.
    pub checks: u64,
    /// Insertions accepted in O(1) by the level invariant.
    pub accepted_o1: u64,
    /// Insertions that ran the two-way bounded search.
    pub searched: u64,
    /// Nodes visited by all searches.
    pub visited: u64,
    /// Level promotions performed by forward passes.
    pub promoted: u64,
}

/// How an accepted insertion was validated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Inserted {
    /// Accepted by the level comparison alone; no search ran and the
    /// backward frontier is empty.
    AcceptedO1,
    /// Accepted after a two-way search; [`OrderGraph::frontier`] holds the
    /// backward-visited set until the next insertion.
    Searched,
}

/// Undoable graph operations.
enum GraphOp {
    /// An edge was appended to `out[from]` and `inn[to]`; `pair` is its
    /// interned pair, or [`NO_PAIR`].
    Edge {
        from: NodeId,
        to: NodeId,
        pair: PairId,
    },
    /// `level[node]` was raised from `old`.
    Level { node: NodeId, old: u32 },
}

/// Scratch for `&self` reachability queries (interior mutability so
/// post-solve checks don't need a mutable theory).
#[derive(Default)]
struct QueryScratch {
    stamp: Vec<u32>,
    gen: u32,
    parent: Vec<(NodeId, Option<Lit>)>,
    stack: Vec<NodeId>,
}

/// The incremental event-order-graph engine. Tracks adjacency, per-node
/// levels and an undo trail; the [`OrderTheory`](super::OrderTheory) drives
/// it from the DPLL(T) callbacks.
pub struct OrderGraph {
    /// Out- and in-edge lists by node, each family in one buffer.
    out: Lists<OutEdge>,
    inn: Lists<InEdge>,
    /// Pseudo-topological level per node (`k(u) ≤ k(v)` along every edge).
    level: Vec<u32>,
    /// Undo trail of edge pushes and level promotions.
    trail: Vec<GraphOp>,
    /// `trail` length at each open decision level.
    marks: Vec<usize>,
    num_edges: usize,
    /// Backward-search scratch: visit stamps and parent edges.
    bstamp: Vec<u32>,
    bgen: u32,
    /// `bparent[x] = (succ, tag)`: the edge `x→succ` on a path from `x` to
    /// the backward root (the inserted edge's tail).
    bparent: Vec<(NodeId, Option<Lit>)>,
    /// `fparent[y] = (pred, tag)`: the edge `pred→y` along the forward pass.
    fparent: Vec<(NodeId, Option<Lit>)>,
    /// Shared explicit stack for both passes.
    stack: Vec<NodeId>,
    /// Endpoints of every interned pair, indexed by [`PairId`].
    pairs: Vec<(NodeId, NodeId)>,
    /// Multiplicity of each interned pair's edge currently present, indexed
    /// by [`PairId`]; parallel duplicates are accepted in O(1) since they
    /// cannot change reachability.
    pair_count: Vec<u32>,
    /// Backward-visited set of the last searched insertion (tail included).
    /// Every member reaches the tail within its level; the theory uses this
    /// to drive implied-atom propagation without extra traversals.
    frontier: Vec<NodeId>,
    query: RefCell<QueryScratch>,
    /// Work counters.
    pub stats: CycleStats,
}

impl Default for OrderGraph {
    fn default() -> Self {
        OrderGraph::new()
    }
}

impl OrderGraph {
    /// Creates an empty graph.
    pub fn new() -> OrderGraph {
        OrderGraph {
            out: Lists::new(),
            inn: Lists::new(),
            level: Vec::new(),
            trail: Vec::new(),
            marks: Vec::new(),
            num_edges: 0,
            bstamp: Vec::new(),
            bgen: 0,
            bparent: Vec::new(),
            fparent: Vec::new(),
            stack: Vec::new(),
            pairs: Vec::new(),
            pair_count: Vec::new(),
            frontier: Vec::new(),
            query: RefCell::new(QueryScratch::default()),
            stats: CycleStats::default(),
        }
    }

    /// Allocates a fresh node at level 0.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.out.num_lists() as u32);
        self.out.add_lists(1);
        self.inn.add_lists(1);
        self.level.push(0);
        self.bstamp.push(0);
        self.bparent.push((id, None));
        self.fparent.push((id, None));
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out.num_lists()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current level of a node (exposed for tests and diagnostics).
    pub fn level_of(&self, n: NodeId) -> u32 {
        self.level[n.index()]
    }

    /// Out-edges of a node.
    pub fn out_edges(&self, n: NodeId) -> &[OutEdge] {
        self.out.list(n.index())
    }

    /// Interns the ordered pair `(a, b)` together with its reverse and
    /// returns the id of `(a, b)`; the reverse is the returned id `^ 1`. The
    /// caller interns each pair once (the graph keeps no lookup from nodes
    /// to ids). Edges already present between the two nodes are counted, so
    /// a later insertion over the pair sees them as parallel duplicates.
    pub fn add_pair(&mut self, a: NodeId, b: NodeId) -> PairId {
        let id = self.pairs.len() as PairId;
        assert!(id < NO_PAIR - 1, "pair id space exhausted");
        for (p, (x, y)) in [(id, (a, b)), (id + 1, (b, a))] {
            let present = self
                .out
                .list(x.index())
                .iter()
                .filter(|e| e.to == y)
                .count();
            self.pairs.push((x, y));
            self.pair_count.push(present as u32);
            // Counted edges inserted at an open level sit on the undo trail
            // without a pair id; give them this one so their undo decrements
            // the count. (At the root the trail is empty.)
            for op in &mut self.trail {
                if let GraphOp::Edge { from, to, pair } = op {
                    if *pair == NO_PAIR && (*from, *to) == (x, y) {
                        *pair = p;
                    }
                }
            }
        }
        id
    }

    /// The endpoints `(from, to)` of an interned pair.
    #[inline]
    pub fn pair_nodes(&self, pair: PairId) -> (NodeId, NodeId) {
        self.pairs[pair as usize]
    }

    /// O(1) estimate of the engine's heap footprint in bytes: adjacency
    /// (each edge sits in one out- and one in-list), per-node levels,
    /// stamps and parent pointers, the undo trail and the pair tables.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let edges = self.num_edges * (size_of::<OutEdge>() + size_of::<InEdge>());
        let per_node = 2 * size_of::<Vec<OutEdge>>()
            + 2 * size_of::<u32>()
            + 2 * size_of::<(NodeId, Option<Lit>)>();
        let nodes = self.out.num_lists() * per_node;
        let trail = self.trail.capacity() * size_of::<GraphOp>();
        let pairs = self.pairs.len() * (size_of::<(NodeId, NodeId)>() + size_of::<u32>());
        (edges + nodes + trail + pairs) as u64
    }

    /// The backward-visited set of the most recent [`Inserted::Searched`]
    /// insertion: nodes that reach that edge's tail. Invalidated by the next
    /// insertion, undo, or query.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// The within-level path `u ⇝ root` recorded by the last backward pass,
    /// as forward-ordered edges. `u` must be in [`OrderGraph::frontier`] and
    /// `root` the tail of the edge that triggered the search.
    pub fn backward_path(&self, u: NodeId, root: NodeId) -> Vec<CycleEdge> {
        let mut path = Vec::new();
        let mut cur = u;
        while cur != root {
            let (succ, tag) = self.bparent[cur.index()];
            path.push(CycleEdge {
                from: cur,
                to: succ,
                tag,
            });
            cur = succ;
        }
        path
    }

    /// Appends to `tags` the asserting literals along the within-level path
    /// `u ⇝ root` recorded by the last backward pass (the tags of
    /// [`Self::backward_path`], without building the path) and returns the
    /// number of edges on it, fixed ones included.
    pub fn backward_tags(&self, u: NodeId, root: NodeId, tags: &mut Vec<Lit>) -> u32 {
        let mut len = 0;
        let mut cur = u;
        while cur != root {
            let (succ, tag) = self.bparent[cur.index()];
            tags.extend(tag);
            len += 1;
            cur = succ;
        }
        len
    }

    /// Inserts `from→to` if it keeps the graph acyclic. On rejection returns
    /// the pre-existing path `to ⇝ from` (the witness cycle minus the new
    /// edge) and leaves the graph exactly as it was.
    ///
    /// For an edge between the two nodes of an interned pair use
    /// [`Self::insert_pair_edge`], which keeps the pair's multiplicity
    /// current; here a parallel duplicate is found by scanning the out-list
    /// of `from`, and only when the level comparison did not already accept.
    pub fn insert_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: Option<Lit>,
    ) -> Result<Inserted, Vec<CycleEdge>> {
        self.insert_checked(from, to, tag, NO_PAIR)
    }

    /// [`Self::insert_edge`] for the edge of an interned pair: the
    /// parallel-duplicate test and its undo are lookups by pair id.
    pub fn insert_pair_edge(
        &mut self,
        pair: PairId,
        tag: Option<Lit>,
    ) -> Result<Inserted, Vec<CycleEdge>> {
        let (from, to) = self.pairs[pair as usize];
        self.insert_checked(from, to, tag, pair)
    }

    fn insert_checked(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: Option<Lit>,
        pair: PairId,
    ) -> Result<Inserted, Vec<CycleEdge>> {
        #[cfg(debug_assertions)]
        let oracle_cyclic = from == to || self.dfs_path(to, from).is_some();
        let res = self.insert_edge_inner(from, to, tag, pair);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            res.is_err(),
            oracle_cyclic,
            "incremental engine diverged from the DFS oracle on {from:?}->{to:?}"
        );
        res
    }

    fn insert_edge_inner(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: Option<Lit>,
        pair: PairId,
    ) -> Result<Inserted, Vec<CycleEdge>> {
        self.stats.checks += 1;
        if from == to {
            // A self-loop is a cycle whose existing-path part is empty.
            self.stats.searched += 1;
            self.frontier.clear();
            return Err(Vec::new());
        }
        if self.level[from.index()] < self.level[to.index()]
            // A parallel duplicate (distinct atoms over the same event
            // pair, or an atom duplicating a fixed program-order edge)
            // cannot change reachability: the graph was acyclic with the
            // first copy, so it stays acyclic with this one.
            || self.has_parallel(from, to, pair)
        {
            self.stats.accepted_o1 += 1;
            self.push_edge(from, to, tag, pair);
            self.compact_root_trail();
            return Ok(Inserted::AcceptedO1);
        }
        self.stats.searched += 1;

        let la = self.level[from.index()];
        let bgen = self.next_bgen();
        self.frontier.clear();
        let target;
        if tag.is_none() {
            // Fixed edges stratify eagerly: skip the backward pass and put
            // `to` strictly above `from`, so program order pre-sorts the
            // level structure before any atom is asserted. The forward
            // pass alone is complete here: every node on a to ⇝ from path
            // has level ≤ k(from) < target (levels are monotone along
            // paths), so the cascade traverses it and hits `from` if a
            // cycle exists. No frontier is lost — fixed edges are inserted
            // at encode time, where there is nothing to propagate.
            target = la + 1;
        } else {
            // ---- backward pass: within level k(from), over in-edges ------
            let delta = isqrt(self.num_edges) + 1;
            self.bstamp[from.index()] = bgen;
            self.frontier.push(from);
            self.stats.visited += 1;
            self.stack.clear();
            self.stack.push(from);
            let mut arcs = 0usize;
            let mut bounded = false;
            'backward: while let Some(u) = self.stack.pop() {
                for i in self.inn.slots(u.index()) {
                    if arcs >= delta {
                        bounded = true;
                        self.stack.clear();
                        break 'backward;
                    }
                    arcs += 1;
                    let InEdge { from: x, tag: etag } = self.inn[i];
                    if self.level[x.index()] != la || self.bstamp[x.index()] == bgen {
                        continue;
                    }
                    self.bstamp[x.index()] = bgen;
                    self.bparent[x.index()] = (u, etag);
                    if x == to {
                        // Existing path to ⇝ from: the new edge closes a cycle.
                        return Err(self.backward_path(to, from));
                    }
                    self.stats.visited += 1;
                    self.frontier.push(x);
                    self.stack.push(x);
                }
            }

            target = if bounded { la + 1 } else { la };
            if target <= self.level[to.index()] {
                // Complete backward pass and k(to) == k(from): the invariant
                // already holds, and completeness rules out any path
                // to ⇝ from.
                self.push_edge(from, to, tag, pair);
                self.compact_root_trail();
                return Ok(Inserted::Searched);
            }
        }

        // ---- level update + forward pass ---------------------------------
        let mark = self.trail.len();
        self.promote(to, target);
        self.stack.clear();
        self.stack.push(to);
        self.stats.visited += 1;
        while let Some(x) = self.stack.pop() {
            for i in self.out.slots(x.index()) {
                let OutEdge { to: y, tag: etag } = self.out[i];
                if y == from || self.bstamp[y.index()] == bgen {
                    // to ⇝ x → y (⇝ from): cycle. Build the witness, then
                    // roll back this insertion's promotions so the level
                    // invariant is restored before the theory backtracks.
                    let path = self.forward_witness(from, to, x, y, etag);
                    self.unwind_to(mark);
                    return Err(path);
                }
                if self.level[y.index()] < self.level[x.index()] {
                    let lx = self.level[x.index()];
                    self.promote(y, lx);
                    self.fparent[y.index()] = (x, etag);
                    self.stack.push(y);
                    self.stats.visited += 1;
                }
            }
        }
        self.push_edge(from, to, tag, pair);
        self.compact_root_trail();
        Ok(Inserted::Searched)
    }

    /// `true` if an edge `from→to` is already present.
    #[inline]
    fn has_parallel(&self, from: NodeId, to: NodeId, pair: PairId) -> bool {
        if pair == NO_PAIR {
            self.out.list(from.index()).iter().any(|e| e.to == to)
        } else {
            self.pair_count[pair as usize] > 0
        }
    }

    /// Advances the backward-visit generation. On wrap-around every stamp is
    /// cleared first: a stale stamp equal to the new generation would read
    /// as visited.
    fn next_bgen(&mut self) -> u32 {
        self.bgen = self.bgen.wrapping_add(1);
        if self.bgen == 0 {
            self.bstamp.fill(0);
            self.bgen = 1;
        }
        self.bgen
    }

    /// Witness for a cycle found by the forward pass while scanning `x→y`:
    /// `to ⇝ x` via forward parents, the scanned edge, then `y ⇝ from` via
    /// backward parents (empty when `y == from`).
    fn forward_witness(
        &self,
        from: NodeId,
        to: NodeId,
        x: NodeId,
        y: NodeId,
        etag: Option<Lit>,
    ) -> Vec<CycleEdge> {
        let mut path = Vec::new();
        let mut cur = x;
        while cur != to {
            let (pred, tag) = self.fparent[cur.index()];
            path.push(CycleEdge {
                from: pred,
                to: cur,
                tag,
            });
            cur = pred;
        }
        path.reverse();
        path.push(CycleEdge {
            from: x,
            to: y,
            tag: etag,
        });
        if y != from {
            path.extend(self.backward_path(y, from));
        }
        path
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, tag: Option<Lit>, pair: PairId) {
        self.out.push(from.index(), OutEdge { to, tag });
        self.inn.push(to.index(), InEdge { from, tag });
        self.num_edges += 1;
        if pair != NO_PAIR {
            self.pair_count[pair as usize] += 1;
        }
        self.trail.push(GraphOp::Edge { from, to, pair });
    }

    fn promote(&mut self, node: NodeId, to_level: u32) {
        let old = self.level[node.index()];
        debug_assert!(old < to_level);
        self.trail.push(GraphOp::Level { node, old });
        self.level[node.index()] = to_level;
        self.stats.promoted += 1;
    }

    /// With no open decision level every trail entry is permanent — drop it
    /// so root-level insertions (fixed program-order edges) never grow the
    /// trail.
    fn compact_root_trail(&mut self) {
        if self.marks.is_empty() {
            self.trail.clear();
        }
    }

    fn unwind_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail length checked") {
                GraphOp::Edge { from, to, pair } => {
                    self.out.pop(from.index());
                    self.inn.pop(to.index());
                    self.num_edges -= 1;
                    if pair != NO_PAIR {
                        self.pair_count[pair as usize] -= 1;
                    }
                }
                GraphOp::Level { node, old } => {
                    self.level[node.index()] = old;
                }
            }
        }
    }

    /// Opens a decision level (mirrors the theory's `new_level`).
    pub fn new_level(&mut self) {
        self.marks.push(self.trail.len());
    }

    /// Backtracks to `level`, restoring adjacency and node levels exactly.
    pub fn backtrack_to(&mut self, level: u32) {
        let target = level as usize;
        if target >= self.marks.len() {
            return;
        }
        let keep = self.marks[target];
        self.marks.truncate(target);
        self.unwind_to(keep);
    }

    /// `true` if a (possibly empty) path `from ⇝ to` exists. A `&self`
    /// query — the DFS scratch lives behind interior mutability, so
    /// post-solve checks run without a mutable theory.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        from == to || self.dfs_path(from, to).is_some()
    }

    /// Full-DFS path search `from ⇝ to` (the retained oracle). Returns the
    /// path's edges in forward order, or `None`. Does not touch `stats`.
    pub fn dfs_path(&self, from: NodeId, to: NodeId) -> Option<Vec<CycleEdge>> {
        let mut q = self.query.borrow_mut();
        let n = self.out.num_lists();
        if q.stamp.len() < n {
            q.stamp.resize(n, 0);
            q.parent.resize(n, (NodeId(0), None));
        }
        q.gen = q.gen.wrapping_add(1);
        if q.gen == 0 {
            // Wrapped: clear the stamps so none reads as visited.
            q.stamp.fill(0);
            q.gen = 1;
        }
        let gen = q.gen;
        q.stack.clear();
        q.stack.push(from);
        q.stamp[from.index()] = gen;
        while let Some(u) = q.stack.pop() {
            for e in self.out.list(u.index()) {
                if q.stamp[e.to.index()] == gen {
                    continue;
                }
                q.stamp[e.to.index()] = gen;
                q.parent[e.to.index()] = (u, e.tag);
                if e.to == to {
                    let mut edges = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (pred, tag) = q.parent[cur.index()];
                        edges.push(CycleEdge {
                            from: pred,
                            to: cur,
                            tag,
                        });
                        cur = pred;
                    }
                    edges.reverse();
                    return Some(edges);
                }
                q.stack.push(e.to);
            }
        }
        None
    }

    /// Parks both visit generations at `gen` (wrap-around tests).
    #[cfg(test)]
    fn set_generations(&mut self, gen: u32) {
        self.bgen = gen;
        self.query.get_mut().gen = gen;
    }

    /// Checks the level invariant `k(u) ≤ k(v)` over every edge. Test/debug
    /// aid; O(V + E).
    pub fn check_level_invariant(&self) -> Result<(), String> {
        for u in 0..self.out.num_lists() {
            for e in self.out.list(u) {
                if self.level[u] > self.level[e.to.index()] {
                    return Err(format!(
                        "edge {u}->{} violates level invariant ({} > {})",
                        e.to.0,
                        self.level[u],
                        self.level[e.to.index()]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Integer square root (newton), used for the backward-search arc bound
/// Δ ≈ √m.
fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = n.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize) -> (OrderGraph, Vec<NodeId>) {
        let mut g = OrderGraph::new();
        let nodes = (0..n).map(|_| g.add_node()).collect();
        (g, nodes)
    }

    #[test]
    fn isqrt_matches_floor_sqrt() {
        for n in 0..2000usize {
            let r = isqrt(n);
            assert!(r * r <= n, "isqrt({n}) = {r}");
            assert!((r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }

    #[test]
    fn accepts_forward_chain_in_o1_after_levels_settle() {
        let (mut g, n) = graph(100);
        for w in n.windows(2) {
            assert!(g.insert_edge(w[0], w[1], None).is_ok());
        }
        assert!(g.check_level_invariant().is_ok());
        // A far-forward edge respects the settled levels: O(1) accept.
        let before = g.stats.accepted_o1;
        assert_eq!(g.insert_edge(n[0], n[99], None), Ok(Inserted::AcceptedO1));
        assert_eq!(g.stats.accepted_o1, before + 1);
    }

    #[test]
    fn rejects_cycle_with_exact_witness() {
        let (mut g, n) = graph(4);
        g.insert_edge(n[0], n[1], None).unwrap();
        g.insert_edge(n[1], n[2], None).unwrap();
        g.insert_edge(n[2], n[3], None).unwrap();
        let path = g.insert_edge(n[3], n[0], None).unwrap_err();
        // Witness is the existing path head ⇝ tail: 0→1→2→3.
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].from, n[0]);
        assert_eq!(path[2].to, n[3]);
        for w in path.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        // Rejection left the graph untouched.
        assert_eq!(g.num_edges(), 3);
        assert!(g.check_level_invariant().is_ok());
        assert!(!g.reaches(n[3], n[0]));
    }

    #[test]
    fn self_loop_rejected_with_empty_witness() {
        let (mut g, n) = graph(1);
        assert_eq!(g.insert_edge(n[0], n[0], None), Err(Vec::new()));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn backtracking_restores_levels_and_edges() {
        let (mut g, n) = graph(8);
        g.new_level();
        // Pair segments first, then chain-link them: the links see in- and
        // out-edges on both endpoints, so they search, hit the Δ = √m
        // bound, and promote.
        for i in [0, 2, 4, 6] {
            g.insert_edge(n[i], n[i + 1], None).unwrap();
        }
        for i in [1, 3, 5] {
            g.insert_edge(n[i], n[i + 1], None).unwrap();
        }
        assert!(
            (0..8).any(|i| g.level_of(n[i]) > 0),
            "chain long enough to trigger promotions"
        );
        assert!(g.reaches(n[0], n[7]));
        g.backtrack_to(0);
        assert_eq!(g.num_edges(), 0);
        for (i, &node) in n.iter().enumerate() {
            assert_eq!(g.level_of(node), 0, "level of node {i} restored");
        }
        assert!(!g.reaches(n[0], n[7]));
        // The reverse orientation is now acceptable.
        g.new_level();
        for w in n.windows(2) {
            assert!(g.insert_edge(w[1], w[0], None).is_ok());
        }
        assert!(g.check_level_invariant().is_ok());
    }

    #[test]
    fn rejected_insertion_rolls_back_forward_promotions() {
        let (mut g, n) = graph(4);
        g.new_level();
        // 1→2→3 then 0→1 promotes the tail of the chain.
        g.insert_edge(n[1], n[2], None).unwrap();
        g.insert_edge(n[2], n[3], None).unwrap();
        g.insert_edge(n[0], n[1], None).unwrap();
        let levels: Vec<u32> = (0..4).map(|i| g.level_of(n[i as usize])).collect();
        // 3→0 closes a cycle; the failed insertion must not leave stray
        // promotions behind.
        assert!(g.insert_edge(n[3], n[0], None).is_err());
        let after: Vec<u32> = (0..4).map(|i| g.level_of(n[i as usize])).collect();
        assert_eq!(levels, after);
        assert!(g.check_level_invariant().is_ok());
    }

    #[test]
    fn root_insertions_do_not_grow_trail() {
        let (mut g, n) = graph(50);
        for w in n.windows(2) {
            g.insert_edge(w[0], w[1], None).unwrap();
        }
        assert_eq!(g.trail.len(), 0, "root trail must stay empty");
        // And a later decision level still undoes exactly its own ops.
        g.new_level();
        g.insert_edge(n[0], n[10], None).unwrap();
        assert!(!g.trail.is_empty());
        g.backtrack_to(0);
        assert_eq!(g.trail.len(), 0);
        assert_eq!(g.num_edges(), 49);
    }

    #[test]
    fn frontier_members_reach_the_tail() {
        // Tagged (asserted) edges keep the diamond at level 0 — fixed
        // edges would stratify eagerly and empty the same-level frontier.
        let tag = |i: u32| Some(zpre_sat::Var::new(i).positive());
        let (mut g, n) = graph(6);
        // Diamond into node 4: backward pass from 4 collects its ancestors
        // at the same level.
        g.insert_edge(n[0], n[4], tag(0)).unwrap();
        g.insert_edge(n[1], n[4], tag(1)).unwrap();
        g.insert_edge(n[2], n[4], tag(2)).unwrap();
        // All nodes still level 0, so inserting 4→5 searches backward from 4.
        let ins = g.insert_edge(n[4], n[5], tag(3)).unwrap();
        assert_eq!(ins, Inserted::Searched);
        let frontier: Vec<NodeId> = g.frontier().to_vec();
        assert!(frontier.contains(&n[4]));
        for &u in &frontier {
            assert!(g.reaches(u, n[4]), "frontier node {u:?} must reach tail");
            // The recorded backward path is a real edge path u ⇝ 4.
            let path = g.backward_path(u, n[4]);
            let mut cur = u;
            for e in &path {
                assert_eq!(e.from, cur);
                cur = e.to;
            }
            assert_eq!(cur, n[4]);
        }
    }

    #[test]
    fn reverse_chain_insertions_visit_constant_nodes_each() {
        // A chain inserted back to front is a full DFS's worst case: it
        // re-walks the whole existing suffix on every insertion, ~n²/2
        // nodes in all. The backward pass instead starts at a node with no
        // in-edges and accepts after constant work.
        let n = 2000;
        let (mut g, nodes) = graph(n);
        for i in (0..n - 1).rev() {
            g.insert_edge(nodes[i], nodes[i + 1], None).unwrap();
        }
        let per_insert = g.stats.visited as f64 / (n - 1) as f64;
        assert!(
            per_insert <= 2.0,
            "{per_insert} nodes visited per insertion"
        );
    }

    #[test]
    fn stats_split_invariant() {
        let (mut g, n) = graph(30);
        for i in 0..29 {
            g.insert_edge(n[i], n[i + 1], None).unwrap();
        }
        let _ = g.insert_edge(n[20], n[5], None);
        let _ = g.insert_edge(n[3], n[25], None);
        assert_eq!(g.stats.accepted_o1 + g.stats.searched, g.stats.checks);
    }

    #[test]
    fn visit_generations_survive_wrap_around() {
        // Generations parked at u32::MAX wrap on the first search and on
        // the first query. Never-visited nodes carry stamp 0, so a wrap to 0
        // would make every node read as visited; the graph must instead
        // behave exactly like a fresh one.
        let run = |park: bool| {
            let tag = |i: u32| Some(zpre_sat::Var::new(i).positive());
            let (mut g, n) = graph(6);
            if park {
                g.set_generations(u32::MAX);
            }
            g.new_level();
            let edges = [(0, 4), (1, 4), (2, 4), (4, 5), (5, 0), (3, 1), (5, 3)];
            let inserted: Vec<bool> = edges
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| g.insert_edge(n[a], n[b], tag(i as u32)).is_ok())
                .collect();
            let reach: Vec<bool> = (0..36).map(|k| g.reaches(n[k / 6], n[k % 6])).collect();
            (inserted, reach, g.stats)
        };
        let fresh = run(false);
        assert!(fresh.0.contains(&false), "the sequence must close a cycle");
        assert_eq!(run(true), fresh);
    }

    #[test]
    fn pair_edges_count_parallel_duplicates() {
        let tag = |i: u32| Some(zpre_sat::Var::new(i).positive());
        let (mut g, n) = graph(3);
        // A root-level edge present before the pair is interned is counted.
        // Both endpoints stay at level 0, so only the parallel-duplicate
        // test can accept the second copy in O(1).
        assert_eq!(g.insert_edge(n[1], n[2], tag(0)), Ok(Inserted::Searched));
        assert_eq!(g.level_of(n[1]), g.level_of(n[2]));
        let p = g.add_pair(n[1], n[2]);
        assert_eq!(g.pair_nodes(p), (n[1], n[2]));
        assert_eq!(g.pair_nodes(p ^ 1), (n[2], n[1]));
        g.new_level();
        assert_eq!(g.insert_pair_edge(p, tag(1)), Ok(Inserted::AcceptedO1));
        // The reverse direction closes a cycle; undo restores the counts.
        assert!(g.insert_pair_edge(p ^ 1, tag(2)).is_err());
        g.backtrack_to(0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.pair_count[p as usize], 1);
        assert_eq!(g.pair_count[(p ^ 1) as usize], 0);
    }

    #[test]
    fn random_insertions_match_dfs_oracle() {
        // Deterministic LCG; the debug_assertions oracle inside insert_edge
        // re-checks every step as well.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _round in 0..20 {
            let (mut g, n) = graph(24);
            g.new_level();
            for _ in 0..120 {
                let a = n[rng() % n.len()];
                let b = n[rng() % n.len()];
                let would_cycle = a == b || g.reaches(b, a);
                match g.insert_edge(a, b, None) {
                    Ok(_) => assert!(!would_cycle),
                    Err(path) => {
                        assert!(would_cycle);
                        // Witness chains b ⇝ a over existing edges.
                        if a != b {
                            let mut cur = b;
                            for e in &path {
                                assert_eq!(e.from, cur);
                                cur = e.to;
                            }
                            assert_eq!(cur, a);
                        }
                    }
                }
                g.check_level_invariant().unwrap();
            }
        }
    }
}
