//! The verification-condition encoder: Φ = Φ_ssa ∧ Φ_po ∧ Φ_rf ∧ Φ_rf_some
//! ∧ Φ_ws ∧ Φ_fr ∧ Φ_err (§3.1 of the paper), extended with mutex
//! critical-section serialization and atomic-section exclusion constraints
//! (the lock-aware analogue of write serialization; see DESIGN.md).
//!
//! The encoding is emitted directly into a CDCL(T) solver whose theory is
//! the event-order graph:
//!
//! - data-path constraints and guards are bit-blasted (Φ_ssa, Φ_err);
//! - Φ_po becomes *fixed* EOG edges;
//! - each `clk(e₁) < clk(e₂)` atom becomes a registered two-sided ordering
//!   atom (`V_ord`);
//! - each read-from selector `rf` (`V_rf`) gets the paper's clauses
//!   `rf → value equality`, `rf → order`, `rf → guard(write)`, plus the
//!   `Φ_rf_some` covering clause per read;
//! - each write-serialization selector (`V_ws`) *is* a two-sided ordering
//!   atom over its write pair (true ⇔ first write first), so `¬ws` yields
//!   the reverse order exactly as in the paper;
//! - Φ_fr emits `rf ∧ ws ∧ guard(other) → read-before-other` clauses.
//!
//! Every created variable is classified in a [`VarRegistry`] under the
//! paper's taxonomy; interference variables get the paper's name scheme
//! (`rf_<rt>_<ri>_<wt>_<wi>`), which is how the frontend communicates
//! thread information to the solver-side decision-order generator.

use zpre_analysis::prune::PruneReport;
use zpre_analysis::{po_pairs, PoClosure};
use zpre_bv::{Blaster, ClauseSink, FastMap, Sort, TermId, TermKind, TermStore};
use zpre_obs::{Phase, Recorder};
use zpre_prog::ssa::{EventKind, SsaProgram};
use zpre_prog::MemoryModel;
use zpre_sat::{DecisionGuide, Lit, Solver, Var};
use zpre_smt::{rf_name, ws_name, NodeId, OrderTheory, VarKind, VarRegistry};

/// An emitted read-from selector.
#[derive(Clone, Copy, Debug)]
pub struct RfVar {
    /// The solver variable.
    pub var: Var,
    /// Read event id.
    pub read: usize,
    /// Write event id.
    pub write: usize,
}

/// An emitted write-serialization selector; `var` true ⇔ `first` before
/// `second`.
#[derive(Clone, Copy, Debug)]
pub struct WsVar {
    /// The solver variable (a two-sided ordering atom).
    pub var: Var,
    /// First write event id.
    pub first: usize,
    /// Second write event id.
    pub second: usize,
}

/// A read whose value the pruning pass resolved statically: no rf
/// selectors are emitted for it; Φ_ssa gets an if-then-else chain over
/// `chain` instead (the read's value is the last executed write's value).
#[derive(Clone, Debug)]
pub struct ResolvedRead {
    /// The read event id.
    pub read: usize,
    /// Surviving candidate writes in must-happen-before order; at least
    /// one has a constant-true guard.
    pub chain: Vec<usize>,
}

/// Everything the verifier needs back from the encoding.
pub struct Encoded {
    /// Variable classification (drives the decision order).
    pub registry: VarRegistry,
    /// The bit-blaster (holds input-bit maps for model extraction).
    pub blaster: Blaster,
    /// EOG node of each event (index = event id).
    pub event_nodes: Vec<NodeId>,
    /// Guard literal of each event.
    pub guard_lits: Vec<Lit>,
    /// Read-from selectors.
    pub rf_vars: Vec<RfVar>,
    /// Write-serialization selectors.
    pub ws_vars: Vec<WsVar>,
    /// Critical-section and atomic-block serialization selectors
    /// (documented substitution — the paper's benchmarks model locks via
    /// these interference-class variables).
    pub sync_vars: Vec<Var>,
    /// Mutex critical sections: `(thread, mutex, lock event, unlock event)`.
    pub critical_sections: Vec<(usize, usize, usize, usize)>,
    /// The literal asserting the error condition (always asserted true).
    pub err_lit: Lit,
    /// `true` when the error condition is statically false (no reachable
    /// assertion) — the formula is then trivially unsatisfiable.
    pub trivially_safe: bool,
    /// Reads the pruning pass resolved directly in Φ_ssa (empty when
    /// encoding without a [`PruneReport`]).
    pub resolved_reads: Vec<ResolvedRead>,
    /// Write pairs whose serialization polarity was fixed statically, in
    /// both key orders: `(a, b) → true` means `a` definitely before `b`.
    pub ws_fixed: FastMap<(usize, usize), bool>,
}

/// A structural problem with the encoding input, reported instead of a
/// panic so callers (portfolio members, services) can degrade gracefully.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// [`try_encode`] was handed a solver that already has variables.
    SolverNotFresh {
        /// Number of pre-existing variables.
        vars: usize,
    },
    /// The program-order edges of the input form a cycle — the SSA event
    /// stream is malformed.
    CyclicProgramOrder,
    /// An `Unlock` event has no matching `Lock` on the same mutex.
    UnlockWithoutLock {
        /// Thread containing the unmatched unlock.
        thread: usize,
        /// Event id of the unmatched unlock.
        event: usize,
    },
    /// The pre-blast size estimate ([`estimate_cnf`]) exceeds the caller's
    /// memory cap: blasting the encoding would likely OOM, so it is refused
    /// up front. Callers treat this like in-search memory exhaustion and
    /// degrade (smaller bound, `Unknown`) instead of dying.
    EncodingTooLarge {
        /// Estimated resident bytes the encoding would need.
        estimated_bytes: u64,
        /// The cap the estimate was checked against.
        cap_bytes: u64,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::SolverNotFresh { vars } => {
                write!(f, "encode requires a fresh solver ({vars} variables exist)")
            }
            EncodeError::CyclicProgramOrder => {
                write!(f, "program order must be acyclic")
            }
            EncodeError::UnlockWithoutLock { thread, event } => {
                write!(
                    f,
                    "unlock without lock in SSA event stream (thread {thread}, event {event})"
                )
            }
            EncodeError::EncodingTooLarge {
                estimated_bytes,
                cap_bytes,
            } => {
                write!(
                    f,
                    "encoding too large: estimated {estimated_bytes} bytes exceeds the \
                     {cap_bytes}-byte memory cap"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Sink wrapper that classifies every blaster-created variable (gate
/// outputs and input bits alike) as `V_ssa`.
struct RegSink<'a, G: DecisionGuide> {
    solver: &'a mut Solver<OrderTheory, G>,
    registry: &'a mut VarRegistry,
}

impl<G: DecisionGuide> ClauseSink for RegSink<'_, G> {
    fn new_aux_var(&mut self) -> Var {
        let v = self.solver.new_var();
        self.registry.register(v, VarKind::Ssa);
        v
    }
    fn add_clause_sink(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }
}

/// Encodes `ssa` under `mm` into `solver`. The solver must be fresh (no
/// variables yet) and its theory empty. Panics on malformed input; use
/// [`try_encode`] to get a typed [`EncodeError`] instead.
pub fn encode<G: DecisionGuide>(
    ssa: &SsaProgram,
    mm: MemoryModel,
    solver: &mut Solver<OrderTheory, G>,
) -> Encoded {
    match try_encode(ssa, mm, solver) {
        Ok(enc) => enc,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`encode`]: structural problems with the input
/// (cyclic program order, unmatched unlocks, a non-fresh solver) come back
/// as [`EncodeError`] values instead of panics.
pub fn try_encode<G: DecisionGuide>(
    ssa: &SsaProgram,
    mm: MemoryModel,
    solver: &mut Solver<OrderTheory, G>,
) -> Result<Encoded, EncodeError> {
    try_encode_traced(ssa, mm, solver, None)
}

/// [`try_encode`] under `zpre-obs` phase spans: the whole encoding runs in an
/// `encode` span labeled with the memory model, and the bit-blasting of the
/// data path (Φ_ssa, event guards, Φ_err) in a nested `blast` span.
pub fn try_encode_traced<G: DecisionGuide>(
    ssa: &SsaProgram,
    mm: MemoryModel,
    solver: &mut Solver<OrderTheory, G>,
    rec: Option<&Recorder>,
) -> Result<Encoded, EncodeError> {
    try_encode_opts(ssa, mm, solver, rec, None)
}

/// [`try_encode_traced`] with an optional [`PruneReport`] from
/// `zpre-analysis`. Without a report the encoding is exactly the historic
/// one; with a report the Φ_rf candidate sets come from the report,
/// resolved reads become if-then-else chains in Φ_ssa, statically fixed ws
/// pairs get no selector, mutex-serialized ws pairs ride on plain
/// ordering atoms (`V_ord`) instead of interference variables, and each
/// symmetric thread pair gets one lex-leader clause over the existing
/// selector of its anchors (first critical sections, or first writes).
/// The report must have been computed for the same `ssa` and `mm`.
pub fn try_encode_opts<G: DecisionGuide>(
    ssa: &SsaProgram,
    mm: MemoryModel,
    solver: &mut Solver<OrderTheory, G>,
    rec: Option<&Recorder>,
    prune: Option<&PruneReport>,
) -> Result<Encoded, EncodeError> {
    let _encode_span = rec.map(|r| r.span_labeled(Phase::Encode, Some(mm.name())));
    debug_assert!(
        prune.is_none_or(|p| p.mm == mm && p.candidates.len() == ssa.events.len()),
        "prune report computed for a different program or memory model"
    );
    if solver.num_vars() != 0 {
        return Err(EncodeError::SolverNotFresh {
            vars: solver.num_vars(),
        });
    }
    let mut registry = VarRegistry::new();
    let mut blaster = Blaster::new();
    let ts = &ssa.store;

    // --- EOG nodes (one per event) and Φ_po -------------------------------
    let event_nodes: Vec<NodeId> = ssa
        .events
        .iter()
        .map(|_| solver.theory.add_node())
        .collect();
    // A prune report carries the program order it was computed on.
    let own_pairs;
    let pairs: &[(usize, usize)] = match prune {
        Some(rep) => &rep.po.pairs,
        None => {
            own_pairs = po_pairs(ssa, mm);
            &own_pairs
        }
    };
    for &(a, b) in pairs {
        let ok = solver.theory.add_fixed_edge(event_nodes[a], event_nodes[b]);
        if !ok {
            return Err(EncodeError::CyclicProgramOrder);
        }
    }
    let own_closure;
    let closure: &PoClosure = match prune {
        Some(rep) => &rep.po.closure,
        None => {
            own_closure = PoClosure::new(ssa.events.len(), pairs);
            &own_closure
        }
    };

    // --- Φ_ssa -------------------------------------------------------------
    let blast_span = rec.map(|r| r.span(Phase::Blast));
    {
        let mut sink = RegSink {
            solver,
            registry: &mut registry,
        };
        for &cst in &ssa.constraints {
            blaster.assert_true(ts, cst, &mut sink);
        }
    }

    // --- Event guards ------------------------------------------------------
    let guard_lits: Vec<Lit> = {
        let mut sink = RegSink {
            solver,
            registry: &mut registry,
        };
        ssa.events
            .iter()
            .map(|e| blaster.blast_bool(ts, e.guard, &mut sink))
            .collect()
    };

    // --- Φ_err --------------------------------------------------------------
    // err = ⋁ (guard ∧ ¬cond); assert it (SAT ⇔ property violated). The
    // working clone `ts2` is shared with the resolved-read chains below:
    // the blaster memoizes by `TermId`, so every term created after the
    // clone must come from the *same* store or ids would collide.
    let mut ts2 = ts.clone();
    let (err_lit, trivially_safe) = {
        let mut err = ts2.fls();
        for &(g, cond) in &ssa.assertions {
            let nc = ts2.not(cond);
            let violated = ts2.and(g, nc);
            err = ts2.or(err, violated);
        }
        let trivially_safe = matches!(ts2.kind(err), TermKind::BoolConst(false));
        let mut sink = RegSink {
            solver,
            registry: &mut registry,
        };
        let lit = blaster.blast_bool(&ts2, err, &mut sink);
        sink.add_clause_sink(&[lit]);
        (lit, trivially_safe)
    };

    // --- Resolved reads (pruning pass) ---------------------------------------
    // A resolved read's value is the last executed write of its chain:
    // guard(r) → value(r) = ite(guard(wₙ), value(wₙ), … value(w₀) …).
    let value_of = |eid: usize| ssa.events[eid].kind.value().expect("an access event");
    let mut resolved_reads: Vec<ResolvedRead> = Vec::new();
    if let Some(rep) = prune {
        let ite = |ts2: &mut TermStore, c: TermId, t: TermId, e: TermId| match ts2.sort(t) {
            Sort::Bool => ts2.bool_ite(c, t, e),
            Sort::Bv(_) => ts2.bv_ite(c, t, e),
        };
        for (r, chain) in rep.resolved.iter().enumerate() {
            let Some(chain) = chain else { continue };
            let mut val = value_of(chain[0]);
            for &w in &chain[1..] {
                val = ite(&mut ts2, ssa.events[w].guard, value_of(w), val);
            }
            let eq = match ts2.sort(val) {
                Sort::Bool => ts2.iff(value_of(r), val),
                Sort::Bv(_) => ts2.eq(value_of(r), val),
            };
            let imp = ts2.implies(ssa.events[r].guard, eq);
            let mut sink = RegSink {
                solver,
                registry: &mut registry,
            };
            blaster.assert_true(&ts2, imp, &mut sink);
            resolved_reads.push(ResolvedRead {
                read: r,
                chain: chain.clone(),
            });
        }
    }
    if let Some(s) = blast_span {
        s.close();
    }

    // --- Ordering-atom cache (V_ord) ----------------------------------------
    // One two-sided atom per unordered node pair; `lit` means a→b.
    let mut ord_cache: FastMap<(usize, usize), Lit> = FastMap::default();
    let mut get_ord = |a: usize,
                       b: usize,
                       solver: &mut Solver<OrderTheory, G>,
                       registry: &mut VarRegistry|
     -> Lit {
        if let Some(&l) = ord_cache.get(&(a, b)) {
            return l;
        }
        let v = solver.new_var();
        registry.register(v, VarKind::Ord);
        solver
            .theory
            .register_atom(v, NodeId(a as u32), NodeId(b as u32));
        solver.mark_theory_var(v);
        ord_cache.insert((a, b), v.positive());
        ord_cache.insert((b, a), v.negative());
        v.positive()
    };

    // --- Reads, writes per shared variable ----------------------------------
    let analysis = access_analysis(ssa);
    let writes_of = &analysis.writes_of;
    // Without a prune report the candidates are the plain MHB filtering.
    let own_candidates;
    let candidates_of: &[Vec<usize>] = match prune {
        Some(rep) => &rep.candidates,
        None => {
            own_candidates = rf_candidates(ssa, closure, &analysis);
            &own_candidates
        }
    };

    // --- Φ_rf and Φ_rf_some ---------------------------------------------------
    let mut rf_vars: Vec<RfVar> = Vec::new();
    // One buffer for every Φ_rf_some and Φ_fr clause.
    let mut clause: Vec<Lit> = Vec::new();
    for reads in &analysis.reads_of {
        for &r in reads {
            // With a prune report: resolved reads were handled in Φ_ssa
            // above, and surviving candidate sets (a subset of the plain
            // MHB filtering) refine the `#write` count H4 sees.
            if prune.is_some_and(|rep| rep.resolved[r].is_some()) {
                continue;
            }
            let candidates: &[usize] = &candidates_of[r];
            let writes = candidates.len() as u32;
            let rev = &ssa.events[r];
            clause.clear();
            clause.push(!guard_lits[r]);
            for &w in candidates {
                let wev = &ssa.events[w];
                let var = solver.new_var();
                registry.register_interference(
                    var,
                    VarKind::Rf {
                        external: wev.thread != rev.thread,
                        writes,
                    },
                    rf_name(rev.thread, rev.pos, wev.thread, wev.pos),
                );
                let f = var.positive();
                // rf → (value_r = value_w)
                {
                    let mut sink = RegSink {
                        solver,
                        registry: &mut registry,
                    };
                    blaster.assert_implies_eq(ts, &[f], value_of(r), value_of(w), &mut sink);
                }
                // rf → clk(w) < clk(r)   (skip when program order already
                // guarantees it — the atom would be fixed anyway).
                if !closure.reaches(w, r) {
                    let ord = get_ord(w, r, solver, &mut registry);
                    solver.add_clause(&[!f, ord]);
                }
                // rf → guard(w)
                solver.add_clause(&[!f, guard_lits[w]]);
                rf_vars.push(RfVar {
                    var,
                    read: r,
                    write: w,
                });
                clause.push(f);
            }
            // Φ_rf_some: an executed read takes its value from some write.
            solver.add_clause(&clause);
        }
    }

    // --- Φ_ws ------------------------------------------------------------------
    let mut ws_vars: Vec<WsVar> = Vec::new();
    let mut ws_lit: FastMap<(usize, usize), Lit> = FastMap::default();
    let mut ws_fixed: FastMap<(usize, usize), bool> = FastMap::default();
    for ws in writes_of.iter() {
        for i in 0..ws.len() {
            for j in i + 1..ws.len() {
                let (w1, w2) = (ws[i], ws[j]);
                if let Some(rep) = prune {
                    // Statically fixed pair: no selector at all; Φ_fr
                    // consults the fixed polarity instead.
                    if let Some(&first) = rep.ws_fixed.get(&(w1, w2)) {
                        ws_fixed.insert((w1, w2), first);
                        ws_fixed.insert((w2, w1), !first);
                        continue;
                    }
                    // Mutex-serialized pair: same two-sided ordering-atom
                    // semantics, but classified `V_ord` — the section
                    // serialization selectors already decide it, so it is
                    // not an interference variable.
                    if rep.ws_serialized.contains(&(w1, w2)) {
                        let l = get_ord(w1, w2, solver, &mut registry);
                        ws_lit.insert((w1, w2), l);
                        ws_lit.insert((w2, w1), !l);
                        continue;
                    }
                }
                let var = solver.new_var();
                let (e1, e2) = (&ssa.events[w1], &ssa.events[w2]);
                registry.register_interference(
                    var,
                    VarKind::Ws,
                    ws_name(e1.thread, e1.pos, e2.thread, e2.pos),
                );
                // The ws selector *is* a two-sided ordering atom:
                // true ⇒ clk(w1)<clk(w2), false ⇒ clk(w2)<clk(w1).
                solver
                    .theory
                    .register_atom(var, event_nodes[w1], event_nodes[w2]);
                solver.mark_theory_var(var);
                ws_lit.insert((w1, w2), var.positive());
                ws_lit.insert((w2, w1), var.negative());
                ws_vars.push(WsVar {
                    var,
                    first: w1,
                    second: w2,
                });
            }
        }
    }

    // --- Φ_fr -------------------------------------------------------------------
    // rf(w,r) ∧ (w before k) ∧ guard(k) → clk(r) < clk(k).
    for &rf in &rf_vars {
        let v = ssa.events[rf.read].kind.var().expect("read event");
        for &k in &writes_of[v] {
            if k == rf.write {
                continue;
            }
            let f = rf.var.positive();
            // `w before k` is a selector literal, an ordering atom
            // (mutex-serialized pair), or a statically fixed polarity.
            let before = match ws_lit.get(&(rf.write, k)) {
                Some(&l) => Some(l),
                None => match ws_fixed.get(&(rf.write, k)) {
                    // Fixed true: the antecedent literal is settled, emit
                    // the clause without it.
                    Some(true) => None,
                    // Fixed false (or an unreachable gap): the clause is
                    // vacuously satisfied.
                    Some(false) | None => continue,
                },
            };
            if closure.reaches(rf.read, k) {
                continue; // order already guaranteed by po
            }
            clause.clear();
            clause.extend([!f, !guard_lits[k]]);
            if let Some(before) = before {
                clause.push(!before);
            }
            let ord = get_ord(rf.read, k, solver, &mut registry);
            clause.push(ord);
            solver.add_clause(&clause);
        }
    }

    // --- Mutex critical sections ---------------------------------------------
    let mut sync_vars: Vec<Var> = Vec::new();
    let mut critical_sections: Vec<(usize, usize, usize, usize)> = Vec::new();
    {
        // Collect critical sections per (thread, mutex) by a per-mutex stack.
        #[derive(Clone)]
        struct Cs {
            thread: usize,
            mutex: usize,
            lock: usize,
            unlock: usize,
        }
        let mut sections: Vec<Cs> = Vec::new();
        // `(lock a, lock b) → s`: true ⇔ the section opened by `a` first.
        let mut section_order: FastMap<(usize, usize), Lit> = FastMap::default();
        for t in 0..ssa.num_threads() {
            let mut stacks: FastMap<usize, Vec<usize>> = FastMap::default();
            for e in ssa.thread_events(t) {
                match e.kind {
                    EventKind::Lock { mutex } => stacks.entry(mutex).or_default().push(e.id),
                    EventKind::Unlock { mutex } => {
                        let Some(lock) = stacks.entry(mutex).or_default().pop() else {
                            return Err(EncodeError::UnlockWithoutLock {
                                thread: t,
                                event: e.id,
                            });
                        };
                        critical_sections.push((t, mutex, lock, e.id));
                        sections.push(Cs {
                            thread: t,
                            mutex,
                            lock,
                            unlock: e.id,
                        });
                    }
                    _ => {}
                }
            }
        }
        for i in 0..sections.len() {
            for j in i + 1..sections.len() {
                let (a, b) = (sections[i].clone(), sections[j].clone());
                if a.mutex != b.mutex || a.thread == b.thread {
                    continue;
                }
                let var = solver.new_var();
                registry.register_interference(
                    var,
                    VarKind::Ws,
                    format!("ws_cs_{}_{}_{}_{}", a.thread, a.lock, b.thread, b.lock),
                );
                sync_vars.push(var);
                let s = var.positive();
                section_order.insert((a.lock, b.lock), s);
                section_order.insert((b.lock, a.lock), !s);
                let (ga, gb) = (guard_lits[a.lock], guard_lits[b.lock]);
                //  s → clk(unlock_a) < clk(lock_b) ; ¬s → clk(unlock_b) < clk(lock_a)
                let o1 = get_ord(a.unlock, b.lock, solver, &mut registry);
                let o2 = get_ord(b.unlock, a.lock, solver, &mut registry);
                solver.add_clause(&[!ga, !gb, !s, o1]);
                solver.add_clause(&[!ga, !gb, s, o2]);
            }
        }
        // Symmetry breaking: of two symmetric threads, the lower-numbered
        // one enters its first critical section first or, without locks,
        // its first write precedes its twin's in coherence order
        // (DESIGN.md §6k). A statically fixed ws pair has no selector and
        // gets no clause.
        for pair in prune.map_or(&[][..], |rep| &rep.sym_pairs) {
            let (a, b) = pair.anchors;
            let order = match ssa.events[a].kind {
                EventKind::Lock { .. } => section_order.get(&(a, b)),
                _ => ws_lit.get(&(a, b)),
            };
            if let Some(&first) = order {
                solver.add_clause(&[!guard_lits[a], !guard_lits[b], first]);
            }
        }
    }

    // --- Atomic sections -------------------------------------------------------
    for (bi, blk) in ssa.atomic_blocks.iter().enumerate() {
        for e in &ssa.events {
            if e.thread == blk.thread {
                continue;
            }
            let Some(v) = e.kind.var() else { continue };
            if !blk.vars.contains(&v) {
                continue;
            }
            let var = solver.new_var();
            registry.register_interference(
                var,
                VarKind::Ws,
                format!("ws_at_{}_{}_{}", bi, e.thread, e.pos),
            );
            sync_vars.push(var);
            let s = var.positive();
            let (ge, gb) = (guard_lits[e.id], guard_lits[blk.begin]);
            // s → e before the block ; ¬s → e after the block.
            let o1 = get_ord(e.id, blk.begin, solver, &mut registry);
            let o2 = get_ord(blk.end, e.id, solver, &mut registry);
            solver.add_clause(&[!ge, !gb, !s, o1]);
            solver.add_clause(&[!ge, !gb, s, o2]);
        }
    }

    Ok(Encoded {
        registry,
        blaster,
        event_nodes,
        guard_lits,
        rf_vars,
        ws_vars,
        sync_vars,
        critical_sections,
        err_lit,
        trivially_safe,
        resolved_reads,
        ws_fixed,
    })
}

/// Read/write inventory, shared between the solver-level encoding and the
/// CNF size estimate.
pub(crate) struct AccessAnalysis {
    /// Write event ids per shared variable.
    pub writes_of: Vec<Vec<usize>>,
    /// Read event ids per shared variable.
    pub reads_of: Vec<Vec<usize>>,
}

/// Computes the access inventory of `ssa`.
pub(crate) fn access_analysis(ssa: &SsaProgram) -> AccessAnalysis {
    let num_vars = ssa.shared_names.len();
    let mut writes_of: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    let mut reads_of: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for e in &ssa.events {
        match e.kind {
            EventKind::Write { var, .. } => writes_of[var].push(e.id),
            EventKind::Read { var, .. } => reads_of[var].push(e.id),
            _ => {}
        }
    }
    AccessAnalysis {
        writes_of,
        reads_of,
    }
}

/// Read-from candidate writes per *read event id* (empty for non-reads):
/// writes not program-order after the read and not provably shadowed by
/// an always-executed intermediate write.
pub(crate) fn rf_candidates(
    ssa: &SsaProgram,
    closure: &PoClosure,
    analysis: &AccessAnalysis,
) -> Vec<Vec<usize>> {
    let ts = &ssa.store;
    let writes_of = &analysis.writes_of;
    let always_true_guard =
        |eid: usize| matches!(ts.kind(ssa.events[eid].guard), TermKind::BoolConst(true));
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); ssa.events.len()];
    for (v, reads) in analysis.reads_of.iter().enumerate() {
        for &r in reads {
            candidates[r] = writes_of[v]
                .iter()
                .copied()
                .filter(|&w| !closure.reaches(r, w))
                .filter(|&w| {
                    !writes_of[v].iter().any(|&w2| {
                        w2 != w
                            && always_true_guard(w2)
                            && closure.reaches(w, w2)
                            && closure.reaches(w2, r)
                    })
                })
                .collect();
        }
    }
    candidates
}

/// A coarse pre-blast size estimate of the verification condition.
///
/// Produced by [`estimate_cnf`] *without* running the blaster, so callers
/// with a memory budget can refuse a pathological encoding before it
/// allocates anything. The numbers are deliberate over-approximations
/// (within a small constant factor of the real CNF): the estimate only has
/// to catch encodings that are orders of magnitude too big, not to be
/// precise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CnfEstimate {
    /// Estimated solver variables (SSA bits + interference selectors).
    pub vars: u64,
    /// Estimated CNF clauses across Φ_ssa ∧ Φ_po ∧ Φ_rf ∧ Φ_ws ∧ Φ_fr ∧ Φ_err.
    pub clauses: u64,
    /// Estimated read-from selectors (Σ per-read candidate writes).
    pub rf_selectors: u64,
    /// Estimated write-serialization selectors (Σ per-var write pairs).
    pub ws_selectors: u64,
}

impl CnfEstimate {
    /// Estimated resident bytes of the blasted encoding inside the solver,
    /// using the same per-variable and per-clause accounting as
    /// `Solver::memory_bytes` (64 bytes/var bookkeeping, ~32 bytes/clause
    /// for arena words plus watchers at the observed mean clause width).
    pub fn bytes(&self) -> u64 {
        self.vars * 64 + self.clauses * 32
    }
}

/// Estimates the blasted size of `ssa`'s verification condition under `mm`
/// without creating a solver or a blaster. Runs the same program-order
/// closure and access analysis as [`try_encode`], then prices each
/// constraint family:
///
/// - data path: one variable per bit-vector bit, ~8 clauses per bit for
///   linear circuits and ~4·w² for multipliers;
/// - Φ_rf: one selector per (read, candidate write) plus a value-equality
///   ladder of ~2 clauses per bit;
/// - Φ_ws: one two-sided ordering selector per unordered same-variable
///   write pair;
/// - Φ_fr: one clause per (rf candidate, other write of the variable).
///
/// Errors mirror [`try_encode`]'s structural checks where they can be
/// detected this early (a cyclic program order).
pub fn estimate_cnf(ssa: &SsaProgram, mm: MemoryModel) -> Result<CnfEstimate, EncodeError> {
    let ts = &ssa.store;
    let pairs = po_pairs(ssa, mm);
    // Kahn pre-check: `PoClosure::new` asserts acyclicity, so detect the
    // malformed case here and report it as the typed error instead.
    {
        let n = ssa.events.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &pairs {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(x) = queue.pop() {
            seen += 1;
            for &y in &adj[x] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    queue.push(y);
                }
            }
        }
        if seen != n {
            return Err(EncodeError::CyclicProgramOrder);
        }
    }
    let closure = PoClosure::new(ssa.events.len(), &pairs);
    let analysis = access_analysis(ssa);
    let candidates = rf_candidates(ssa, &closure, &analysis);

    // Data path: price every hash-consed term once (the blaster memoizes).
    let mut vars: u64 = 0;
    let mut clauses: u64 = 0;
    for i in 0..ts.len() {
        let t = TermId(i as u32);
        let w = match ts.sort(t) {
            zpre_bv::Sort::Bool => 1u64,
            zpre_bv::Sort::Bv(w) => w as u64,
        };
        vars += w;
        clauses += match ts.kind(t) {
            TermKind::BvMul(_, _) => 4 * w * w,
            _ => 8 * w,
        };
    }

    // Interference selectors and their clause families.
    let width_of = |eid: usize| -> u64 {
        match ssa.events[eid].kind {
            EventKind::Read { value, .. } | EventKind::Write { value, .. } => {
                match ts.sort(value) {
                    zpre_bv::Sort::Bool => 1,
                    zpre_bv::Sort::Bv(w) => w as u64,
                }
            }
            _ => 1,
        }
    };
    let mut rf_selectors: u64 = 0;
    for (r, cands) in candidates.iter().enumerate() {
        if cands.is_empty() {
            continue;
        }
        rf_selectors += cands.len() as u64;
        // rf → value-eq (~2 clauses/bit), rf → order, rf → guard, and the
        // Φ_rf_some covering clause; Φ_fr adds one clause per other write.
        let w = width_of(r);
        clauses += cands.len() as u64 * (2 * w + 2) + 1;
    }
    let mut ws_selectors: u64 = 0;
    for writes in &analysis.writes_of {
        // One selector per same-variable write pair (po-ordered pairs are
        // settled by theory propagation but still get a selector).
        let n = writes.len() as u64;
        let pairs = n * n.saturating_sub(1) / 2;
        ws_selectors += pairs;
        clauses += pairs * 2;
    }
    for (v, reads) in analysis.reads_of.iter().enumerate() {
        let writes = analysis.writes_of[v].len() as u64;
        clauses += reads.len() as u64 * writes.saturating_mul(writes.saturating_sub(1));
    }
    vars += rf_selectors + ws_selectors;
    // Ordering atoms: at most one per rf (read↔write order) beyond the ws
    // selectors, which are ordering atoms themselves.
    vars += rf_selectors;

    Ok(CnfEstimate {
        vars,
        clauses,
        rf_selectors,
        ws_selectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::*;
    use zpre_prog::{to_ssa, unroll_program, Program};
    use zpre_sat::{NoGuide, SolveResult};
    use zpre_smt::ClassCounts;

    fn fig2() -> Program {
        ProgramBuilder::new("fig2")
            .shared("x", 0)
            .shared("y", 0)
            .shared("m", 0)
            .shared("n", 0)
            .thread(
                "t1",
                vec![assign("x", add(v("y"), c(1))), assign("m", v("y"))],
            )
            .thread(
                "t2",
                vec![assign("y", add(v("x"), c(1))), assign("n", v("x"))],
            )
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(not(and(eq(v("m"), c(0)), eq(v("n"), c(0))))),
            ])
            .build()
    }

    fn solve(p: &Program, mm: MemoryModel) -> SolveResult {
        let u = unroll_program(p, 2);
        let ssa = to_ssa(&u);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        let _enc = encode(&ssa, mm, &mut solver);
        solver.solve()
    }

    #[test]
    fn fig2_safe_under_sc() {
        // The paper's example: unsat (safe) under SC.
        assert_eq!(solve(&fig2(), MemoryModel::Sc), SolveResult::Unsat);
    }

    #[test]
    fn registry_has_all_classes() {
        let u = unroll_program(&fig2(), 2);
        let ssa = to_ssa(&u);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        let enc = encode(&ssa, MemoryModel::Sc, &mut solver);
        let ClassCounts {
            ssa: nssa,
            ord,
            rf,
            ws,
            ..
        } = enc.registry.class_counts();
        assert!(nssa > 0, "ssa vars");
        assert!(ord > 0, "ord vars");
        assert!(rf > 0, "rf vars");
        assert!(ws > 0, "ws vars");
        assert_eq!(rf, enc.rf_vars.len());
        assert_eq!(ws, enc.ws_vars.len());
    }

    #[test]
    fn rf_names_follow_paper_recipe() {
        let u = unroll_program(&fig2(), 2);
        let ssa = to_ssa(&u);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        let enc = encode(&ssa, MemoryModel::Sc, &mut solver);
        let rf = enc.rf_vars[0];
        let name = enc.registry.name(rf.var).unwrap();
        assert!(name.starts_with("rf_"), "{name}");
        assert_eq!(name.split('_').count(), 5, "{name}");
    }

    /// Racy counter: SAT (bug) in every memory model.
    #[test]
    fn racy_counter_found_unsafe() {
        let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        let p = ProgramBuilder::new("race")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build();
        for mm in MemoryModel::ALL {
            assert_eq!(solve(&p, mm), SolveResult::Sat, "{mm}");
        }
    }

    /// Mutex-protected counter: UNSAT (safe) everywhere.
    #[test]
    fn locked_counter_safe() {
        let inc = vec![
            lock("m"),
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
            unlock("m"),
        ];
        let p = ProgramBuilder::new("locked")
            .shared("cnt", 0)
            .mutex("m")
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build();
        for mm in MemoryModel::ALL {
            assert_eq!(solve(&p, mm), SolveResult::Unsat, "{mm}");
        }
    }

    /// Atomic-section counter: UNSAT (safe) everywhere.
    #[test]
    fn atomic_counter_safe() {
        let inc = atomic(vec![
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
        ]);
        let p = ProgramBuilder::new("atomic")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build();
        for mm in MemoryModel::ALL {
            assert_eq!(solve(&p, mm), SolveResult::Unsat, "{mm}");
        }
    }

    /// Store buffering: safe under SC, buggy under TSO/PSO; fences repair it.
    #[test]
    fn store_buffering_across_models() {
        let mk = |fenced: bool| {
            let t1 = if fenced {
                vec![assign("x", c(1)), fence(), assign("r1", v("y"))]
            } else {
                vec![assign("x", c(1)), assign("r1", v("y"))]
            };
            let t2 = if fenced {
                vec![assign("y", c(1)), fence(), assign("r2", v("x"))]
            } else {
                vec![assign("y", c(1)), assign("r2", v("x"))]
            };
            ProgramBuilder::new("sb")
                .shared("x", 0)
                .shared("y", 0)
                .shared("r1", 0)
                .shared("r2", 0)
                .thread("t1", t1)
                .thread("t2", t2)
                .main(vec![
                    spawn(1),
                    spawn(2),
                    join(1),
                    join(2),
                    assert_(not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0))))),
                ])
                .build()
        };
        assert_eq!(solve(&mk(false), MemoryModel::Sc), SolveResult::Unsat);
        assert_eq!(solve(&mk(false), MemoryModel::Tso), SolveResult::Sat);
        assert_eq!(solve(&mk(false), MemoryModel::Pso), SolveResult::Sat);
        assert_eq!(solve(&mk(true), MemoryModel::Tso), SolveResult::Unsat);
        assert_eq!(solve(&mk(true), MemoryModel::Pso), SolveResult::Unsat);
    }

    /// Message passing: safe under SC and TSO, buggy under PSO.
    #[test]
    fn message_passing_across_models() {
        let p = ProgramBuilder::new("mp")
            .shared("data", 0)
            .shared("flag", 0)
            .shared("seen", 0)
            .shared("val", 0)
            .thread(
                "producer",
                vec![assign("data", c(42)), assign("flag", c(1))],
            )
            .thread(
                "consumer",
                vec![assign("seen", v("flag")), assign("val", v("data"))],
            )
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(or(eq(v("seen"), c(0)), eq(v("val"), c(42)))),
            ])
            .build();
        assert_eq!(solve(&p, MemoryModel::Sc), SolveResult::Unsat);
        assert_eq!(solve(&p, MemoryModel::Tso), SolveResult::Unsat);
        assert_eq!(solve(&p, MemoryModel::Pso), SolveResult::Sat);
    }

    /// Nondeterminism + assume interplay.
    #[test]
    fn nondet_and_assume() {
        let p = ProgramBuilder::new("nd")
            .shared("x", 0)
            .main(vec![
                assign("x", nondet("k")),
                assume(lt(v("x"), c(4))),
                assert_(ne(v("x"), c(3))),
            ])
            .build();
        assert_eq!(solve(&p, MemoryModel::Sc), SolveResult::Sat); // x = 3 violates
        let p2 = ProgramBuilder::new("nd2")
            .shared("x", 0)
            .main(vec![
                assign("x", nondet("k")),
                assume(lt(v("x"), c(3))),
                assert_(ne(v("x"), c(3))),
            ])
            .build();
        assert_eq!(solve(&p2, MemoryModel::Sc), SolveResult::Unsat);
    }

    #[test]
    fn trivially_safe_flag() {
        let p = ProgramBuilder::new("noassert")
            .shared("x", 0)
            .main(vec![assign("x", c(1))])
            .build();
        let u = unroll_program(&p, 1);
        let ssa = to_ssa(&u);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        let enc = encode(&ssa, MemoryModel::Sc, &mut solver);
        assert!(enc.trivially_safe);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn estimate_tracks_real_encoding_within_constant_factor() {
        // The estimator must (a) never undercount interference selectors,
        // and (b) stay within a small constant factor of the real solver
        // footprint, so a memory cap gated on it is meaningful.
        let u = unroll_program(&fig2(), 2);
        let ssa = to_ssa(&u);
        for mm in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let est = estimate_cnf(&ssa, mm).unwrap();
            let mut solver: Solver<OrderTheory, NoGuide> =
                Solver::with_parts(OrderTheory::new(), NoGuide);
            let enc = encode(&ssa, mm, &mut solver);
            assert!(
                est.rf_selectors >= enc.rf_vars.len() as u64,
                "{mm:?}: rf estimate {} < actual {}",
                est.rf_selectors,
                enc.rf_vars.len()
            );
            assert!(
                est.ws_selectors >= enc.ws_vars.len() as u64,
                "{mm:?}: ws estimate {} < actual {}",
                est.ws_selectors,
                enc.ws_vars.len()
            );
            let actual = solver.memory_bytes();
            assert!(
                est.bytes() >= actual / 8,
                "{mm:?}: estimate {} implausibly below footprint {actual}",
                est.bytes()
            );
            assert!(
                est.bytes() <= actual.saturating_mul(64),
                "{mm:?}: estimate {} implausibly above footprint {actual}",
                est.bytes()
            );
        }
    }

    #[test]
    fn estimate_grows_with_unroll_bound() {
        let e1 = {
            let ssa = to_ssa(&unroll_program(&fig2(), 1));
            estimate_cnf(&ssa, MemoryModel::Sc).unwrap()
        };
        let e4 = {
            let ssa = to_ssa(&unroll_program(&fig2(), 4));
            estimate_cnf(&ssa, MemoryModel::Sc).unwrap()
        };
        assert!(e4.bytes() >= e1.bytes());
        assert!(e1.bytes() > 0);
    }

    #[test]
    fn try_encode_rejects_a_used_solver() {
        let p = ProgramBuilder::new("fresh")
            .shared("x", 0)
            .main(vec![assign("x", c(1))])
            .build();
        let u = unroll_program(&p, 1);
        let ssa = to_ssa(&u);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        solver.new_var();
        assert!(matches!(
            try_encode(&ssa, MemoryModel::Sc, &mut solver),
            Err(EncodeError::SolverNotFresh { vars: 1 })
        ));
    }
}
