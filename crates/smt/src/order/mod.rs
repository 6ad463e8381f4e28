//! The event-order theory: incremental acyclicity of the event order graph.
//!
//! The partial-order encoding of a multi-threaded program (§3.1 of the
//! paper) reduces every `clk(e₁) < clk(e₂)` atom to an edge in the *event
//! order graph* (EOG). A (partial) assignment to the ordering atoms is
//! theory-consistent iff the EOG is acyclic — a symbolic concurrent
//! execution is valid iff a total order of its events exists (§3.3).
//!
//! This module implements that theory for the DPLL(T) loop of `zpre-sat`:
//!
//! - *fixed edges* model the program order Φ_po (asserted before solving,
//!   never retracted);
//! - each registered *atom* `v ↦ (a, b)` contributes the edge `a→b` when
//!   `v` is assigned true and the reverse edge `b→a` when assigned false
//!   (clock values are total, so ¬(a<b) ⇔ b<a for distinct events);
//! - every asserted edge runs an incremental cycle check in the
//!   [`graph::OrderGraph`] engine: a topological-level comparison accepts
//!   order-respecting edges in O(1), anything else runs a bounded two-way
//!   search (see the module docs of [`graph`]); on a cycle the theory
//!   reports the asserting literals of the cycle's edges as the conflict —
//!   a minimal explanation — with the witness path built lazily from the
//!   search's parent pointers;
//! - asserting `a→b` eagerly propagates `¬atom(b,a)` when such an atom
//!   exists (cheap one-step transitivity), and when the check already ran a
//!   backward search, the frontier it computed — every node known to reach
//!   `a` — drives the same propagation one hop further for free: for each
//!   frontier node `u`, `¬atom(b,u)` is implied with the recorded path as
//!   its explanation. Both can be disabled for ablation.

pub mod graph;

use std::sync::Arc;

use zpre_obs::{Event, EventSink};
use zpre_sat::share::NO_TAG;
use zpre_sat::{CycleEdgeRaw, Lit, Theory, TheoryConflict, TheoryOut, Var};

use graph::{CycleStats, Inserted, OrderGraph, PairId, NO_PAIR};

/// Cap on lemmas buffered for sharing between solver drains. Conflicts can
/// outpace the drain cadence (the solver drains on learn, not per-assert),
/// so the buffer is bounded and overflow is dropped silently.
const SHARE_BUF_CAP: usize = 256;

/// A node of the event order graph (an event, or a virtual fence /
/// spawn / join node).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One edge of a justifying EOG cycle, as recorded in a [`TheoryLemma`].
///
/// `tag` is the literal whose truth asserts the edge (`None` for fixed
/// program-order edges). Under the negation of the lemma clause every tag
/// is true, so the tagged edges — plus the always-present fixed edges —
/// close the cycle that makes the assignment theory-inconsistent.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CycleEdge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The asserting literal, or `None` for a fixed edge.
    pub tag: Option<Lit>,
}

/// Converts a cycle edge to the node-type-agnostic transport form used by
/// the `zpre-sat` share pool.
fn raw_edge(e: &CycleEdge) -> CycleEdgeRaw {
    CycleEdgeRaw {
        from: e.from.0,
        to: e.to.0,
        tag_code: e.tag.map_or(NO_TAG, |l| l.code() as u32),
    }
}

/// Reconstructs a cycle edge from transport form.
fn cooked_edge(e: &CycleEdgeRaw) -> CycleEdge {
    CycleEdge {
        from: NodeId(e.from),
        to: NodeId(e.to),
        tag: (e.tag_code != NO_TAG).then(|| Lit::from_code(e.tag_code)),
    }
}

/// A theory lemma together with its justification: the clause is valid in
/// the order theory because the edges of `cycle` form a directed cycle in
/// the EOG whenever the clause's negation holds.
#[derive(Clone, Debug)]
pub struct TheoryLemma {
    /// The lemma clause (as emitted to the solver's proof log).
    pub clause: Vec<Lit>,
    /// The closed EOG cycle justifying it, in forward edge order.
    pub cycle: Vec<CycleEdge>,
}

/// The order theory. Implements [`zpre_sat::Theory`]; the graph state lives
/// in the incremental [`graph::OrderGraph`] engine, which keeps its own
/// undo trail in lockstep with this theory's explanation trail.
pub struct OrderTheory {
    /// The incremental cycle-detection engine (adjacency + levels + trail).
    graph: OrderGraph,
    /// Atom registry, indexed by `Var::index()`: the interned pair `(a, b)`
    /// of the atom (true ⇒ a→b, false ⇒ the reverse pair `id ^ 1`), or
    /// [`NO_PAIR`] for a variable that is not an ordering atom.
    atom_pair: Vec<PairId>,
    /// For each interned pair, indexed by [`PairId`], every literal that
    /// means that pair's edge. (Usually one, but duplicate atoms over the
    /// same pair stay linked.)
    pair_lits: Vec<Vec<Lit>>,
    /// Per node `a`: `(b, id of (a, b))` for every interned pair with `a`
    /// as an endpoint. Interning scans it once per atom; the frontier pass
    /// reads it once per searched check.
    pair_adj: Vec<Vec<(NodeId, PairId)>>,
    /// Per node scratch of the frontier pass: the pair id of `(to, u)` for
    /// every atom partner `u` of the edge head `to`, [`NO_PAIR`] otherwise.
    /// Marking the partners once beats scanning `pair_adj[to]` per frontier
    /// node on `solver-tail`.
    partner: Vec<PairId>,
    /// Explanation slot per literal, indexed by `Lit::code()`: the range
    /// `(start, len)` of its antecedents in `expl_lits`; `len == 0` means the
    /// literal was not propagated (an explanation is never empty).
    expl_at: Vec<(u32, u32)>,
    /// Antecedents of every live propagation, stacked in `prop_trail`
    /// order, so backtracking truncates it and keeps its capacity.
    expl_lits: Vec<Lit>,
    /// Scratch for the explanation shared by one frontier node's implied
    /// literals.
    expl_buf: Vec<Lit>,
    /// Undo trail of propagated literals (edge undo lives in the engine).
    prop_trail: Vec<Lit>,
    /// `prop_trail` length at each open decision level.
    levels: Vec<usize>,
    /// Whether the fixed edges already contain a cycle.
    fixed_cycle: bool,
    /// Enable one-step reverse propagation (ablation toggle).
    propagate_reverse: bool,
    /// Append-only journal of emitted lemmas with their justifying cycles
    /// (only filled when [`Self::enable_lemma_journal`] was called).
    journal: Vec<TheoryLemma>,
    /// Whether the lemma journal is recording.
    journal_on: bool,
    /// Whether conflict-cycle lemmas are buffered for portfolio sharing.
    share_on: bool,
    /// Buffered shareable lemmas in transport form, drained by the solver's
    /// share-export hook. Bounded by [`SHARE_BUF_CAP`]; overflow drops the
    /// newest (sharing is best-effort, the conflict itself is unaffected).
    share_out: Vec<(Vec<Lit>, Vec<CycleEdgeRaw>)>,
    /// Structured-event receiver for lemma telemetry (EOG-cycle lengths and
    /// searched cycle checks' visited counts); `None` keeps the emission
    /// sites down to a single branch.
    sink: Option<Arc<dyn EventSink>>,
}

impl Default for OrderTheory {
    fn default() -> Self {
        OrderTheory::new()
    }
}

impl OrderTheory {
    /// Creates an empty theory.
    pub fn new() -> OrderTheory {
        OrderTheory {
            graph: OrderGraph::new(),
            atom_pair: Vec::new(),
            pair_lits: Vec::new(),
            pair_adj: Vec::new(),
            partner: Vec::new(),
            expl_at: Vec::new(),
            expl_lits: Vec::new(),
            expl_buf: Vec::new(),
            prop_trail: Vec::new(),
            levels: Vec::new(),
            fixed_cycle: false,
            propagate_reverse: true,
            journal: Vec::new(),
            journal_on: false,
            share_on: false,
            share_out: Vec::new(),
            sink: None,
        }
    }

    /// Installs (or removes) a structured-event sink. The theory streams a
    /// [`Event::TheoryLemma`] with the justifying EOG-cycle length for every
    /// cycle conflict and every reverse-propagation lemma, plus an
    /// [`Event::CycleCheck`] with the visited count of every asserted
    /// ordering atom that ran the bounded search. The work counters stay in
    /// [`Self::cycle_stats`].
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.sink = sink;
    }

    #[inline]
    fn emit_lemma(&self, cycle_len: u32) {
        if let Some(s) = &self.sink {
            s.emit(Event::TheoryLemma { cycle_len });
        }
    }

    /// Starts journaling every emitted lemma with its justifying cycle.
    /// The journal is append-only and survives backtracking: certification
    /// matches proof steps against it by clause, so stale entries from
    /// abandoned branches are harmless.
    pub fn enable_lemma_journal(&mut self) {
        self.journal_on = true;
        self.journal.clear();
    }

    /// Takes the recorded lemma journal, leaving journaling enabled.
    pub fn take_lemmas(&mut self) -> Vec<TheoryLemma> {
        std::mem::take(&mut self.journal)
    }

    /// Disables one-step reverse propagation (for the ablation study).
    pub fn set_propagate_reverse(&mut self, on: bool) {
        self.propagate_reverse = on;
    }

    /// Forces every cycle check through the retained full-DFS oracle
    /// instead of the incremental two-way search (the pre-incremental
    /// algorithm; ablation / before-after benchmarks).
    pub fn set_full_dfs_check(&mut self, on: bool) {
        self.graph.set_force_full_dfs(on);
    }

    /// The engine's work counters (checks / O(1) accepts / searches /
    /// visited nodes / level promotions).
    pub fn cycle_stats(&self) -> CycleStats {
        self.graph.stats
    }

    /// Allocates a fresh EOG node.
    pub fn add_node(&mut self) -> NodeId {
        self.pair_adj.push(Vec::new());
        self.partner.push(NO_PAIR);
        self.graph.add_node()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Adds a fixed (program-order) edge `a→b`. Must be called at the root
    /// level: before the first solve, or between incremental solve calls
    /// (the solver backtracks to the root after every answer, so the fixed
    /// skeleton, its topological levels, and any root-level asserted edges
    /// all persist and new frames may extend them). Duplicate parallel
    /// fixed edges are skipped. Returns `false` if the edge closes a cycle
    /// among fixed edges — an encoding bug the caller should surface.
    pub fn add_fixed_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a != b && self.is_fixed_edge(a, b) {
            return true;
        }
        // An edge over an atom's pair goes through its pair id, so a later
        // assertion of that atom sees the fixed copy as a parallel duplicate.
        let res = match self.pair_of(a, b) {
            Some(p) => self.graph.insert_pair_edge(p, None),
            None => self.graph.insert_edge(a, b, None),
        };
        if res.is_err() {
            self.fixed_cycle = true;
        }
        res.is_ok()
    }

    /// Registers a solver variable as the ordering atom for `(a, b)`:
    /// the variable true means `clk(a) < clk(b)`, false means the reverse.
    ///
    /// The caller must also mark the variable on the solver with
    /// [`zpre_sat::Solver::mark_theory_var`].
    pub fn register_atom(&mut self, var: Var, a: NodeId, b: NodeId) {
        debug_assert_ne!(a, b, "ordering atom over a single event");
        let p = match self.pair_of(a, b) {
            Some(p) => p,
            None => {
                let p = self.graph.add_pair(a, b);
                self.pair_adj[a.index()].push((b, p));
                self.pair_adj[b.index()].push((a, p ^ 1));
                self.pair_lits.extend([Vec::new(), Vec::new()]);
                p
            }
        };
        let v = var.index();
        if self.atom_pair.len() <= v {
            self.atom_pair.resize(v + 1, NO_PAIR);
            self.expl_at.resize(2 * (v + 1), (0, 0));
        }
        self.atom_pair[v] = p;
        self.pair_lits[p as usize].push(var.positive());
        self.pair_lits[(p ^ 1) as usize].push(var.negative());
    }

    /// The interned pair `(a, b)`, if an atom ranges over it.
    fn pair_of(&self, a: NodeId, b: NodeId) -> Option<PairId> {
        self.pair_adj[a.index()]
            .iter()
            .find(|&&(u, _)| u == b)
            .map(|&(_, p)| p)
    }

    /// The pair registered for `var`, if any.
    pub fn atom_nodes(&self, var: Var) -> Option<(NodeId, NodeId)> {
        match self.atom_pair.get(var.index()) {
            Some(&p) if p != NO_PAIR => Some(self.graph.pair_nodes(p)),
            _ => None,
        }
    }

    /// `true` if the fixed edges alone are cyclic.
    pub fn has_fixed_cycle(&self) -> bool {
        self.fixed_cycle
    }

    /// `true` if `to` is currently reachable from `from`. A `&self` query:
    /// the DFS scratch lives inside the engine behind interior mutability,
    /// so certification re-checks don't need mutable access.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.graph.reaches(from, to)
    }

    /// `true` if the fixed (program-order) edge `a→b` exists. Post-solve
    /// the solver has backtracked to the root, so only fixed and root-level
    /// edges remain — this is the predicate certification re-checks.
    pub fn is_fixed_edge(&self, a: NodeId, b: NodeId) -> bool {
        a.index() < self.graph.num_nodes()
            && self
                .graph
                .out_edges(a)
                .iter()
                .any(|e| e.to == b && e.tag.is_none())
    }

    /// Current topological order of all nodes, if the graph is acyclic.
    /// Used for model extraction (concrete clock values).
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.graph.num_nodes();
        let mut indeg = vec![0usize; n];
        for u in 0..n as u32 {
            for e in self.graph.out_edges(NodeId(u)) {
                indeg[e.to.index()] += 1;
            }
        }
        let mut queue: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|x| indeg[x.index()] == 0)
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(x) = queue.pop() {
            out.push(x);
            for e in self.graph.out_edges(x) {
                indeg[e.to.index()] -= 1;
                if indeg[e.to.index()] == 0 {
                    queue.push(e.to);
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// Clock value per node derived from [`Self::topological_order`]:
    /// `clock[v]` is the position of node `v`. `None` if cyclic.
    pub fn clock_values(&self) -> Option<Vec<u32>> {
        let order = self.topological_order()?;
        let mut clock = vec![0u32; self.graph.num_nodes()];
        for (i, n) in order.iter().enumerate() {
            clock[n.index()] = i as u32;
        }
        Some(clock)
    }

    /// Records the implication `expl ⊨ q` if `q` has no explanation yet:
    /// stores the explanation, journals the lemma (clause `q ∨ ¬expl`
    /// justified by `cycle`, built from the graph only when journaling), and
    /// queues the propagation.
    fn push_propagation(
        &mut self,
        q: Lit,
        expl: &[Lit],
        cycle: impl FnOnce(&OrderGraph) -> Vec<CycleEdge>,
        cycle_len: u32,
        out: &mut TheoryOut,
    ) {
        let slot = &mut self.expl_at[q.code()];
        if slot.1 != 0 {
            return;
        }
        *slot = (self.expl_lits.len() as u32, expl.len() as u32);
        self.expl_lits.extend_from_slice(expl);
        self.prop_trail.push(q);
        self.emit_lemma(cycle_len);
        if self.journal_on {
            let mut clause = vec![q];
            clause.extend(expl.iter().map(|&l| !l));
            self.journal.push(TheoryLemma {
                clause,
                cycle: cycle(&self.graph),
            });
        }
        out.propagations.push(q);
    }

    /// The frontier half of reverse propagation after a searched insertion
    /// of `from→to` asserted by `lit`: for each backward-frontier node `u`
    /// in visit order, negates every atom over `(to, u)`, explained by the
    /// tags of the recorded path `u ⇝ from` plus `lit`.
    fn propagate_frontier(&mut self, lit: Lit, from: NodeId, to: NodeId, out: &mut TheoryOut) {
        // Mark the atom partners of `to` with their pair ids, so the lookup
        // per frontier node is one array read.
        for &(u, p) in &self.pair_adj[to.index()] {
            self.partner[u.index()] = p;
        }
        let mut expl = std::mem::take(&mut self.expl_buf);
        for i in 0..self.graph.frontier().len() {
            let u = self.graph.frontier()[i];
            if u == from {
                continue; // handled by the one-step case
            }
            let tp = self.partner[u.index()];
            if tp == NO_PAIR {
                continue;
            }
            let lits = &self.pair_lits[tp as usize];
            if !lits.iter().any(|&l| l != lit && l != !lit) {
                continue;
            }
            expl.clear();
            let path_len = self.graph.backward_tags(u, from, &mut expl);
            expl.push(lit);
            for k in 0..self.pair_lits[tp as usize].len() {
                let q = !self.pair_lits[tp as usize][k];
                if q == lit || q == !lit {
                    continue;
                }
                self.push_propagation(
                    q,
                    &expl,
                    |g| {
                        // Closed cycle to→u ⇝ from→to, justifying clause
                        // q ∨ ¬expl.
                        let mut cycle = vec![CycleEdge {
                            from: to,
                            to: u,
                            tag: Some(!q),
                        }];
                        cycle.extend(g.backward_path(u, from));
                        cycle.push(CycleEdge {
                            from,
                            to,
                            tag: Some(lit),
                        });
                        cycle
                    },
                    path_len + 2,
                    out,
                );
            }
        }
        self.expl_buf = expl;
        for &(u, _) in &self.pair_adj[to.index()] {
            self.partner[u.index()] = NO_PAIR;
        }
    }
}

impl Theory for OrderTheory {
    fn assert_lit(&mut self, lit: Lit, out: &mut TheoryOut) -> Result<(), TheoryConflict> {
        let p = match self.atom_pair.get(lit.var().index()) {
            Some(&p) if p != NO_PAIR => p,
            _ => return Ok(()), // not an ordering atom
        };
        // The asserted edge's pair: the atom's own, or its reverse.
        let ep = if lit.sign() { p } else { p ^ 1 };
        let (from, to) = self.graph.pair_nodes(ep);

        // Would the new edge close a cycle? A path to→…→from plus the new
        // edge from→to is a cycle. The engine answers via the level
        // comparison or the bounded two-way search; the witness path is
        // only materialized on rejection.
        let visited_before = self.graph.stats.visited;
        let res = self.graph.insert_pair_edge(ep, Some(lit));
        if let Some(s) = &self.sink {
            if res != Ok(Inserted::AcceptedO1) {
                let visited = (self.graph.stats.visited - visited_before) as u32;
                s.emit(Event::CycleCheck { visited });
            }
        }

        let ins = match res {
            Err(path) => {
                // The justifying cycle is the path to→…→from plus the new edge.
                self.emit_lemma(path.len() as u32 + 1);
                let mut path_lits: Vec<Lit> = path.iter().filter_map(|e| e.tag).collect();
                path_lits.push(lit);
                if self.journal_on || self.share_on {
                    let mut cycle = vec![CycleEdge {
                        from,
                        to,
                        tag: Some(lit),
                    }];
                    cycle.extend(path);
                    let clause: Vec<Lit> = path_lits.iter().map(|&l| !l).collect();
                    if self.share_on && self.share_out.len() < SHARE_BUF_CAP {
                        self.share_out
                            .push((clause.clone(), cycle.iter().map(raw_edge).collect()));
                    }
                    if self.journal_on {
                        self.journal.push(TheoryLemma { clause, cycle });
                    }
                }
                // All literals are true; their conjunction is inconsistent.
                return Err(TheoryConflict { lits: path_lits });
            }
            Ok(ins) => ins,
        };

        if self.propagate_reverse {
            // One-step: other atoms over the same pair are implied true, and
            // the reverse edge is now impossible (one-step transitivity;
            // longer cycles are left to the cycle check). The explanation
            // clause q ∨ ¬lit is justified by the 2-cycle its negation
            // (¬q ∧ lit) would create.
            let two_cycle = move |q: Lit| {
                move |_: &OrderGraph| {
                    vec![
                        CycleEdge {
                            from,
                            to,
                            tag: Some(lit),
                        },
                        CycleEdge {
                            from: to,
                            to: from,
                            tag: Some(!q),
                        },
                    ]
                }
            };
            for i in 0..self.pair_lits[ep as usize].len() {
                let q = self.pair_lits[ep as usize][i];
                if q != lit {
                    self.push_propagation(q, &[lit], two_cycle(q), 2, out);
                }
            }
            let rp = (ep ^ 1) as usize;
            for i in 0..self.pair_lits[rp].len() {
                let q = !self.pair_lits[rp][i];
                if q != lit {
                    self.push_propagation(q, &[lit], two_cycle(q), 2, out);
                }
            }

            // Frontier-driven: the backward pass already proved u ⇝ from for
            // every frontier node u, so an edge to→u would close the cycle
            // to→u ⇝ from→to. Negate any atom that would assert one.
            if ins == Inserted::Searched && !self.pair_adj[to.index()].is_empty() {
                self.propagate_frontier(lit, from, to, out);
            }
        }
        Ok(())
    }

    fn new_level(&mut self) {
        self.levels.push(self.prop_trail.len());
        self.graph.new_level();
    }

    fn backtrack_to(&mut self, level: u32) {
        self.graph.backtrack_to(level);
        let target = level as usize;
        if target >= self.levels.len() {
            return;
        }
        let keep = self.levels[target];
        self.levels.truncate(target);
        if let Some(&first) = self.prop_trail.get(keep) {
            // Explanations stack in trail order: the first undone one starts
            // where the survivors end.
            self.expl_lits
                .truncate(self.expl_at[first.code()].0 as usize);
            for lit in self.prop_trail.drain(keep..) {
                self.expl_at[lit.code()] = (0, 0);
            }
        }
    }

    fn explain(&mut self, lit: Lit) -> &[Lit] {
        let (start, len) = self.expl_at.get(lit.code()).copied().unwrap_or((0, 0));
        assert!(
            len != 0,
            "explanation requested for a literal the theory did not propagate"
        );
        &self.expl_lits[start as usize..(start + len) as usize]
    }

    fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_var = self.atom_pair.capacity() * size_of::<PairId>()
            + self.expl_at.capacity() * size_of::<(u32, u32)>();
        let stacks =
            (self.expl_lits.capacity() + self.expl_buf.capacity() + self.prop_trail.capacity())
                * size_of::<Lit>()
                + self.levels.capacity() * size_of::<usize>();
        // Each pair id holds a literal list (usually one literal) and one
        // adjacency entry; each node an adjacency list and a partner slot.
        let per_pair = size_of::<Vec<Lit>>() + size_of::<Lit>() + size_of::<(NodeId, PairId)>();
        let per_node = size_of::<Vec<(NodeId, PairId)>>() + size_of::<PairId>();
        self.graph.memory_bytes()
            + (per_var + stacks + self.pair_lits.len() * per_pair + self.pair_adj.len() * per_node)
                as u64
    }

    fn enable_share_capture(&mut self) {
        self.share_on = true;
        self.share_out.clear();
    }

    fn drain_shared_lemmas(&mut self, out: &mut Vec<(Vec<Lit>, Vec<CycleEdgeRaw>)>) {
        out.append(&mut self.share_out);
    }

    fn absorb_shared_lemma(&mut self, clause: &[Lit], cycle: &[CycleEdgeRaw]) {
        // An imported cycle lemma joins the journal so certification can
        // match the clause like a locally derived one. All portfolio
        // members encode the same SSA instance, so the node indices and
        // atom registrations line up; the certifier re-checks the cycle
        // against this member's registry, never trusting the exporter.
        if self.journal_on {
            self.journal.push(TheoryLemma {
                clause: clause.to_vec(),
                cycle: cycle.iter().map(cooked_edge).collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_sat::{SolveResult, Solver};

    #[test]
    fn fixed_edges_detect_cycles() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        assert!(t.add_fixed_edge(a, b));
        assert!(t.add_fixed_edge(b, c));
        assert!(!t.add_fixed_edge(c, a));
        assert!(t.has_fixed_cycle());
    }

    #[test]
    fn share_capture_round_trips_through_transport_form() {
        use crate::certcheck::check_lemma_against;
        // Exporter: a 3-node cycle (one fixed edge, two atoms) raises a
        // conflict whose lemma lands in the share buffer.
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        t.add_fixed_edge(a, b);
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        t.register_atom(v0, b, c);
        t.register_atom(v1, c, a);
        t.enable_share_capture();
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
        assert!(t.assert_lit(v1.positive(), &mut out).is_err());
        t.backtrack_to(0);
        let mut drained = Vec::new();
        t.drain_shared_lemmas(&mut drained);
        assert_eq!(drained.len(), 1);
        // A second drain yields nothing (buffer was taken).
        let mut again = Vec::new();
        t.drain_shared_lemmas(&mut again);
        assert!(again.is_empty());

        // Importer: an identically encoded theory absorbs the lemma into
        // its journal, and the certifier re-checks it from first principles.
        let mut imp = OrderTheory::new();
        let ia = imp.add_node();
        let ib = imp.add_node();
        let _ic = imp.add_node();
        imp.add_fixed_edge(ia, ib);
        imp.register_atom(v0, NodeId(1), NodeId(2));
        imp.register_atom(v1, NodeId(2), NodeId(0));
        imp.enable_lemma_journal();
        let (clause, cycle) = &drained[0];
        imp.absorb_shared_lemma(clause, cycle);
        let lemmas = imp.take_lemmas();
        assert_eq!(lemmas.len(), 1);
        assert_eq!(lemmas[0].clause, *clause);
        assert_eq!(check_lemma_against(&imp, &lemmas[0]), Ok(()));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        assert!(!t.add_fixed_edge(a, a));
    }

    #[test]
    fn duplicate_fixed_edges_are_skipped() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        assert!(t.add_fixed_edge(a, b));
        assert!(t.add_fixed_edge(a, b));
        assert!(t.add_fixed_edge(a, b));
        assert_eq!(t.graph.num_edges(), 1, "parallel fixed edges deduplicated");
        // The duplicate calls don't re-run the cycle check either.
        assert_eq!(t.cycle_stats().checks, 1);
    }

    #[test]
    fn reachability() {
        let mut t = OrderTheory::new();
        let n: Vec<NodeId> = (0..4).map(|_| t.add_node()).collect();
        t.add_fixed_edge(n[0], n[1]);
        t.add_fixed_edge(n[1], n[2]);
        assert!(t.reachable(n[0], n[2]));
        assert!(!t.reachable(n[2], n[0]));
        assert!(!t.reachable(n[0], n[3]));
        assert!(t.reachable(n[3], n[3]));
    }

    #[test]
    fn reachable_is_a_shared_query() {
        // `reachable` takes &self: usable through a shared reference, as the
        // certification re-checks do post-solve.
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        t.add_fixed_edge(a, b);
        let shared: &OrderTheory = &t;
        assert!(shared.reachable(a, b));
        assert!(!shared.reachable(b, a));
    }

    #[test]
    fn assert_edge_conflict_has_minimal_explanation() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        t.add_fixed_edge(a, b);
        let mut out = TheoryOut::default();
        // atom v0: b < c ; atom v1: c < a
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        t.register_atom(v0, b, c);
        t.register_atom(v1, c, a);
        t.new_level();
        assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
        let err = t.assert_lit(v1.positive(), &mut out).unwrap_err();
        // Cycle a→b→c→a: asserting lits are v0 and v1 (fixed edge has none).
        let mut lits = err.lits.clone();
        lits.sort();
        assert_eq!(lits, vec![v0.positive(), v1.positive()]);
    }

    #[test]
    fn reverse_atom_is_propagated() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        t.register_atom(v0, a, b);
        t.register_atom(v1, b, a);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
        // Edge a→b now exists; atom v1 (b→a when true) must become false.
        assert_eq!(out.propagations, vec![v1.negative()]);
        assert_eq!(t.explain(v1.negative()), vec![v0.positive()]);
    }

    #[test]
    fn frontier_propagates_transitive_reverse_atoms() {
        // Assert a→b then b→c with an atom over (c, a) registered: c→a
        // would close the 3-cycle, so the atom is negated eagerly — one
        // hop beyond the old one-step propagation. (Asserted edges, not
        // fixed ones: fixed edges stratify levels eagerly, and the
        // backward frontier only spans the tail's own level.)
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let vab = Var::new(0);
        let vbc = Var::new(1);
        let vca = Var::new(2);
        t.register_atom(vab, a, b);
        t.register_atom(vbc, b, c);
        t.register_atom(vca, c, a);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(vab.positive(), &mut out).is_ok());
        assert!(t.assert_lit(vbc.positive(), &mut out).is_ok());
        assert!(
            out.propagations.contains(&vca.negative()),
            "frontier propagation must negate the cycle-closing atom, got {:?}",
            out.propagations
        );
        // The explanation chains the path tags + the asserted lit.
        assert_eq!(
            t.explain(vca.negative()),
            vec![vab.positive(), vbc.positive()]
        );
    }

    #[test]
    fn frontier_propagation_journals_valid_cycles() {
        let mut t = OrderTheory::new();
        t.enable_lemma_journal();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let vab = Var::new(0);
        let vbc = Var::new(1);
        let vca = Var::new(2);
        t.register_atom(vab, a, b);
        t.register_atom(vbc, b, c);
        t.register_atom(vca, c, a);
        let mut out = TheoryOut::default();
        t.new_level();
        t.assert_lit(vab.positive(), &mut out).unwrap();
        t.assert_lit(vbc.positive(), &mut out).unwrap();
        let lemmas = t.take_lemmas();
        assert!(!lemmas.is_empty());
        for lemma in &lemmas {
            // Chained and closed.
            for w in lemma.cycle.windows(2) {
                assert_eq!(w[0].to, w[1].from);
            }
            assert_eq!(
                lemma.cycle.first().unwrap().from,
                lemma.cycle.last().unwrap().to
            );
        }
    }

    #[test]
    fn no_reverse_propagation_when_disabled() {
        let mut t = OrderTheory::new();
        t.set_propagate_reverse(false);
        let a = t.add_node();
        let b = t.add_node();
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        t.register_atom(v0, a, b);
        t.register_atom(v1, b, a);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
        assert!(out.propagations.is_empty());
    }

    #[test]
    fn backtracking_removes_edges_and_explanations() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        t.register_atom(v0, a, b);
        t.register_atom(v1, b, a);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
        assert!(t.reachable(a, b));
        t.backtrack_to(0);
        assert!(!t.reachable(a, b));
        // After undo the reverse edge may be asserted without conflict.
        out.clear();
        t.new_level();
        assert!(t.assert_lit(v1.positive(), &mut out).is_ok());
        assert!(t.reachable(b, a));
    }

    #[test]
    fn negative_assignment_means_reverse_edge() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let v0 = Var::new(0);
        t.register_atom(v0, a, b);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(v0.negative(), &mut out).is_ok());
        assert!(t.reachable(b, a));
        assert!(!t.reachable(a, b));
    }

    #[test]
    fn topological_order_and_clocks() {
        let mut t = OrderTheory::new();
        let n: Vec<NodeId> = (0..4).map(|_| t.add_node()).collect();
        t.add_fixed_edge(n[0], n[1]);
        t.add_fixed_edge(n[1], n[2]);
        t.add_fixed_edge(n[0], n[3]);
        let clock = t.clock_values().expect("acyclic");
        assert!(clock[n[0].index()] < clock[n[1].index()]);
        assert!(clock[n[1].index()] < clock[n[2].index()]);
        assert!(clock[n[0].index()] < clock[n[3].index()]);
    }

    #[test]
    fn topological_order_none_when_cyclic() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        t.add_fixed_edge(a, b);
        // Force a cycle directly through the adjacency (bypassing the check
        // is not possible through the public API, so emulate via atoms).
        let v0 = Var::new(0);
        t.register_atom(v0, b, a);
        let mut out = TheoryOut::default();
        t.new_level();
        // b→a would close the cycle — the theory refuses it.
        assert!(t.assert_lit(v0.positive(), &mut out).is_err());
        // Graph stays acyclic, topological order exists.
        assert!(t.topological_order().is_some());
    }

    #[test]
    fn cycle_stats_split_holds() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Visits(Mutex<Vec<u32>>);
        impl EventSink for Visits {
            fn emit(&self, ev: Event) {
                if let Event::CycleCheck { visited } = ev {
                    self.0.lock().unwrap().push(visited);
                }
            }
        }
        let mut t = OrderTheory::new();
        let n: Vec<NodeId> = (0..6).map(|_| t.add_node()).collect();
        for w in n.windows(2) {
            t.add_fixed_edge(w[0], w[1]);
        }
        let fixed = t.cycle_stats();
        let sink = Arc::new(Visits::default());
        t.set_event_sink(Some(sink.clone()));
        let (v0, v1, v2) = (Var::new(0), Var::new(1), Var::new(2));
        t.register_atom(v0, n[0], n[4]);
        t.register_atom(v1, n[5], n[0]);
        t.register_atom(v2, n[3], n[1]);
        let mut out = TheoryOut::default();
        t.new_level();
        let _ = t.assert_lit(v0.positive(), &mut out);
        let _ = t.assert_lit(v1.positive(), &mut out);
        let _ = t.assert_lit(v2.positive(), &mut out);
        let s = t.cycle_stats();
        assert_eq!(s.accepted_o1 + s.searched, s.checks);
        assert_eq!(s.checks - fixed.checks, 3);
        // One event per searched atom check, carrying its visited count;
        // the O(1) acceptance emits nothing.
        let visits = sink.0.lock().unwrap();
        assert_eq!(s.accepted_o1 - fixed.accepted_o1, 1);
        assert_eq!(visits.len() as u64, s.searched - fixed.searched);
        let visited: u64 = visits.iter().map(|&v| v as u64).sum();
        assert_eq!(visited, s.visited - fixed.visited);
    }

    #[test]
    fn atoms_registered_out_of_variable_order() {
        let mut t = OrderTheory::new();
        let n: Vec<NodeId> = (0..3).map(|_| t.add_node()).collect();
        let (v9, v4, v1) = (Var::new(9), Var::new(4), Var::new(1));
        t.register_atom(v9, n[0], n[1]);
        t.register_atom(v4, n[1], n[2]);
        t.register_atom(v1, n[2], n[0]);
        assert_eq!(t.atom_nodes(v9), Some((n[0], n[1])));
        assert_eq!(t.atom_nodes(v4), Some((n[1], n[2])));
        assert_eq!(t.atom_nodes(v1), Some((n[2], n[0])));
        // Gaps and variables past the table are not atoms.
        assert_eq!(t.atom_nodes(Var::new(0)), None);
        assert_eq!(t.atom_nodes(Var::new(5)), None);
        assert_eq!(t.atom_nodes(Var::new(50)), None);
        let mut out = TheoryOut::default();
        t.new_level();
        assert!(t.assert_lit(Var::new(5).positive(), &mut out).is_ok());
        assert_eq!(t.cycle_stats().checks, 0, "a non-atom asserts nothing");
        assert!(t.assert_lit(v9.positive(), &mut out).is_ok());
        assert!(t.assert_lit(v4.positive(), &mut out).is_ok());
        let err = t.assert_lit(v1.positive(), &mut out).unwrap_err();
        let mut lits = err.lits;
        lits.sort();
        assert_eq!(lits, vec![v1.positive(), v4.positive(), v9.positive()]);
    }

    #[test]
    fn atoms_added_after_a_solve_reuse_pairs() {
        // Sweep frames register atoms between solves: a new atom over an
        // existing pair (in either direction) joins that pair's literal
        // list, and a fixed edge added later counts as its parallel copy.
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let vab = s.new_var();
        s.theory.register_atom(vab, a, b);
        s.mark_theory_var(vab);
        assert_eq!(s.solve(), SolveResult::Sat);
        let vba = s.new_var();
        s.theory.register_atom(vba, b, a);
        s.mark_theory_var(vba);
        // vab and vba name opposite edges of one pair: exactly one holds.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_ne!(s.model_var_value(vab), s.model_var_value(vba));
        assert!(s.theory.add_fixed_edge(a, b));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_var_value(vab).is_true());
        assert!(s.model_var_value(vba).is_false());
        s.add_clause(&[vba.positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn parallel_atoms_and_fixed_duplicates_accept_in_o1() {
        // Raise `a` to the level of `b` so the level comparison alone
        // cannot accept a→b: only the parallel-duplicate test can.
        let setup = |fixed_first: bool| {
            let mut t = OrderTheory::new();
            let n: Vec<NodeId> = (0..4).map(|_| t.add_node()).collect();
            let (a, b, c0, c1) = (n[0], n[1], n[2], n[3]);
            let (v0, v1, lift) = (Var::new(0), Var::new(1), Var::new(2));
            if fixed_first {
                assert!(t.add_fixed_edge(a, b));
            }
            t.register_atom(v0, a, b);
            t.register_atom(v1, a, b);
            if !fixed_first {
                assert!(t.add_fixed_edge(a, b));
            }
            assert!(t.add_fixed_edge(c0, c1));
            t.register_atom(lift, c1, a);
            let mut out = TheoryOut::default();
            t.new_level();
            assert!(t.assert_lit(lift.positive(), &mut out).is_ok());
            assert_eq!(t.graph.level_of(a), t.graph.level_of(b));
            (t, v0, v1)
        };
        for fixed_first in [true, false] {
            let (mut t, v0, v1) = setup(fixed_first);
            let mut out = TheoryOut::default();
            let before = t.cycle_stats();
            // v0 duplicates the fixed edge; v1 (over the same pair) is
            // implied by it and duplicates both.
            assert!(t.assert_lit(v0.positive(), &mut out).is_ok());
            assert_eq!(out.propagations, vec![v1.positive()]);
            assert!(t.assert_lit(v1.positive(), &mut out).is_ok());
            let after = t.cycle_stats();
            assert_eq!(
                after.accepted_o1 - before.accepted_o1,
                2,
                "fixed first: {fixed_first}"
            );
            assert_eq!(
                after.searched, before.searched,
                "fixed first: {fixed_first}"
            );
        }
    }

    #[test]
    fn explanation_slot_is_reused_after_backtracking() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let (v0, v1, v2, v3) = (Var::new(0), Var::new(1), Var::new(2), Var::new(3));
        t.register_atom(v0, a, b);
        t.register_atom(v1, a, b);
        t.register_atom(v2, b, a);
        t.register_atom(v3, b, c);
        let q = v2.negative();
        let mut out = TheoryOut::default();
        t.new_level();
        t.assert_lit(v0.positive(), &mut out).unwrap();
        assert_eq!(t.explain(q), vec![v0.positive()]);
        // A deeper level's explanations stack above and vanish with it.
        t.new_level();
        t.assert_lit(v3.positive(), &mut out).unwrap();
        t.backtrack_to(1);
        assert_eq!(t.explain(q), vec![v0.positive()]);
        t.backtrack_to(0);
        // Propagated again, now because of v1: the slot holds the new one.
        out.clear();
        t.new_level();
        t.assert_lit(v1.positive(), &mut out).unwrap();
        assert_eq!(out.propagations, vec![v0.positive(), q]);
        assert_eq!(t.explain(q), vec![v1.positive()]);
        assert_eq!(t.explain(v0.positive()), vec![v1.positive()]);
    }

    #[test]
    #[should_panic(expected = "did not propagate")]
    fn explain_panics_on_a_literal_never_propagated() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let v0 = Var::new(0);
        t.register_atom(v0, a, b);
        let mut out = TheoryOut::default();
        t.new_level();
        t.assert_lit(v0.positive(), &mut out).unwrap();
        // v0 was asserted, not propagated.
        t.explain(v0.positive());
    }

    #[test]
    #[should_panic(expected = "did not propagate")]
    fn explain_panics_on_a_literal_past_the_table() {
        let mut t = OrderTheory::new();
        t.explain(Var::new(7).negative());
    }

    #[test]
    fn memory_estimate_counts_theory_state() {
        let mut s: Solver<OrderTheory> = Solver::with_parts(OrderTheory::new(), zpre_sat::NoGuide);
        let (solver_empty, theory_empty) = (s.memory_bytes(), s.theory.memory_bytes());
        let n: Vec<NodeId> = (0..16).map(|_| s.theory.add_node()).collect();
        for (i, w) in n.windows(2).enumerate() {
            s.theory.register_atom(Var::new(i as u32), w[0], w[1]);
        }
        let registered = s.theory.memory_bytes();
        assert!(registered > theory_empty);
        // The solver's estimate moves with the theory's alone.
        assert_eq!(s.memory_bytes() - solver_empty, registered - theory_empty);
        let mut out = TheoryOut::default();
        s.theory.new_level();
        for i in 0..15 {
            s.theory
                .assert_lit(Var::new(i).positive(), &mut out)
                .unwrap();
        }
        assert!(
            s.theory.memory_bytes() > registered,
            "edges and trail count"
        );
    }

    /// End-to-end: the order theory inside the CDCL(T) loop.
    #[test]
    fn dpllt_finds_total_order() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let vab = s.new_var();
        let vbc = s.new_var();
        let vca = s.new_var();
        s.theory.register_atom(vab, a, b);
        s.theory.register_atom(vbc, b, c);
        s.theory.register_atom(vca, c, a);
        for v in [vab, vbc, vca] {
            s.mark_theory_var(v);
        }
        // No boolean constraints: any acyclic orientation works.
        assert_eq!(s.solve(), SolveResult::Sat);
        // The model must be an acyclic orientation: check by re-asserting.
        let mut check = OrderTheory::new();
        let ca = check.add_node();
        let cb = check.add_node();
        let cc = check.add_node();
        let pairs = [(vab, ca, cb), (vbc, cb, cc), (vca, cc, ca)];
        for (v, x, y) in pairs {
            let (f, t_) = if s.model_var_value(v).is_true() {
                (x, y)
            } else {
                (y, x)
            };
            assert!(
                !check.reachable(t_, f),
                "model orientation must stay acyclic"
            );
            assert!(check.add_fixed_edge(f, t_));
        }
    }

    /// Forcing all three edges of a triangle must be UNSAT.
    #[test]
    fn dpllt_cycle_is_unsat() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let vab = s.new_var();
        let vbc = s.new_var();
        let vca = s.new_var();
        s.theory.register_atom(vab, a, b);
        s.theory.register_atom(vbc, b, c);
        s.theory.register_atom(vca, c, a);
        for v in [vab, vbc, vca] {
            s.mark_theory_var(v);
            s.add_clause(&[v.positive()]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Incremental use: new events, fixed edges, and atoms may join the
    /// theory between solve calls at the root level; the existing skeleton
    /// and its levels carry over.
    #[test]
    fn accepts_new_events_and_atoms_between_solves() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let vab = s.new_var();
        s.theory.register_atom(vab, a, b);
        s.mark_theory_var(vab);
        s.add_clause(&[vab.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Root level after the answer: extend the EOG with a fresh event,
        // a fixed edge, and a new ordering atom.
        let c = s.theory.add_node();
        assert!(s.theory.add_fixed_edge(b, c));
        let vca = s.new_var();
        s.theory.register_atom(vca, c, a);
        s.mark_theory_var(vca);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The root-level a→b edge persisted, so c<a must come out false —
        // it would close a→b→c→a.
        assert!(s.model_var_value(vca).is_false());
        // Forcing it is unsatisfiable.
        s.add_clause(&[vca.positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Frame-style use: per-call assumptions toggle guarded ordering atoms
    /// over a fixed skeleton that persists across calls.
    #[test]
    fn assumption_frames_share_the_fixed_skeleton() {
        let mut t = OrderTheory::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        t.add_fixed_edge(a, b);
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let vbc = s.new_var();
        let vca = s.new_var();
        s.theory.register_atom(vbc, b, c);
        s.theory.register_atom(vca, c, a);
        for v in [vbc, vca] {
            s.mark_theory_var(v);
        }
        let g1 = s.new_var();
        let g2 = s.new_var();
        // Frame 1 requires b<c; frame 2 additionally requires c<a.
        s.add_clause(&[g1.negative(), vbc.positive()]);
        s.add_clause(&[g2.negative(), vbc.positive()]);
        s.add_clause(&[g2.negative(), vca.positive()]);
        assert_eq!(s.solve_with_assumptions(&[g1.positive()]), SolveResult::Sat);
        assert!(s.model_var_value(vbc).is_true());
        // a→b→c plus c→a cycles: frame 2 is Unsat, core names g2 only.
        assert_eq!(
            s.solve_with_assumptions(&[g2.positive(), g1.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(s.assumption_core(), &[g2.positive()]);
        // Frame 1 is still Sat afterwards; the skeleton survived.
        assert_eq!(s.solve_with_assumptions(&[g1.positive()]), SolveResult::Sat);
        assert!(s.theory.is_fixed_edge(a, b));
    }

    /// A long chain with one boolean selector per edge direction; forcing a
    /// back edge makes it UNSAT through theory conflicts only.
    #[test]
    fn dpllt_chain_with_back_edge() {
        const N: usize = 12;
        let mut t = OrderTheory::new();
        let nodes: Vec<NodeId> = (0..N).map(|_| t.add_node()).collect();
        for w in nodes.windows(2) {
            t.add_fixed_edge(w[0], w[1]);
        }
        let first = nodes[0];
        let last = nodes[N - 1];
        let mut s: Solver<OrderTheory> = Solver::with_parts(t, zpre_sat::NoGuide);
        let back = s.new_var();
        s.theory.register_atom(back, last, first);
        s.mark_theory_var(back);
        // back=true ⇒ last<first ⇒ cycle. back must be false.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_var_value(back).is_false());
        // Now force it true: UNSAT.
        s.add_clause(&[back.positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
