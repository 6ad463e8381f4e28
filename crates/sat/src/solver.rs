//! The CDCL(T) search engine.
//!
//! A MiniSat-lineage conflict-driven clause-learning solver with:
//!
//! - two-watched-literal propagation with blocker literals, binary clauses
//!   resolved inside the watcher, and a literal-indexed value table;
//! - first-UIP conflict analysis with recursive clause minimization;
//! - VSIDS variable activities with phase saving (order heap repaired
//!   lazily, see [`crate::heap`]);
//! - LBD-aware learnt-clause database reduction and arena compaction;
//! - Luby restarts;
//! - a background [`Theory`] (DPLL(T)) asserted eagerly in trail order; and
//! - a pluggable [`DecisionGuide`] consulted *before* VSIDS — the hook used
//!   by the interference-relation decision order of the paper.

use std::sync::Arc;

use zpre_obs::{Event, EventSink, VarClass};

use crate::clause::{CRef, ClauseDb};
use crate::guide::{AssignView, DecisionGuide, NoGuide};
use crate::lists::Lists;
use crate::lit::{LBool, Lit, Var};
use crate::proof::Proof;
use crate::share::{MemberEndpoint, ShareClass, ShareSpec, SharedClause};
use crate::stats::{Budget, ExhaustionReason, Stats};
use crate::theory::{NoTheory, Theory, TheoryConflict, TheoryOut};

/// Final verdict of a [`Solver::solve`] run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying, theory-consistent assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The budget (conflicts or wall clock) was exhausted.
    Unknown,
}

/// Why a variable is assigned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Reason {
    /// Not assigned, or a decision.
    None,
    /// Implied by a clause. The implied literal is at position 0, except in
    /// a binary clause, where it may sit in either slot.
    Clause(CRef),
    /// Implied by the theory; explanation fetched lazily via
    /// [`Theory::explain`].
    Theory,
}

/// A watch-list entry: a clause reference and a blocker literal whose
/// truth satisfies the clause. The top bit of `cref` ([`CRef::SPARE_BIT`])
/// flags a binary clause, whose blocker is always its other literal:
/// propagation then resolves the clause from the watcher alone and never
/// touches the arena.
#[derive(Copy, Clone)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

// Watch lists dominate propagation's memory traffic, and `memory_bytes`
// prices two watchers per clause at this size.
const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

impl Watcher {
    #[inline]
    fn new(cref: CRef, blocker: Lit, binary: bool) -> Watcher {
        let flag = if binary { CRef::SPARE_BIT } else { 0 };
        Watcher {
            cref: cref.bits() | flag,
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> CRef {
        CRef::from_bits(self.cref & !CRef::SPARE_BIT)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.cref & CRef::SPARE_BIT != 0
    }
}

/// A conflict found during propagation, as a clause of false literals.
struct Conflict {
    /// All literals are false under the current assignment.
    lits: Vec<Lit>,
    /// `true` when the theory raised it (the learnt clause then ships to
    /// the share pool under the theory class, not the generic LBD cap).
    from_theory: bool,
}

/// Outcome of a decision attempt.
enum DecideOutcome {
    /// A new decision was enqueued.
    Decided,
    /// Every variable is assigned.
    AllAssigned,
    /// An assumption is falsified; the core has been computed.
    AssumptionConflict,
}

const RESCALE_LIMIT: f64 = 1e100;
const CLA_RESCALE_LIMIT: f32 = 1e20;

/// VSIDS variable-activity decay.
const VAR_DECAY: f64 = 0.95;
/// Learnt-clause activity decay.
const CLAUSE_DECAY: f32 = 0.999;
/// Conflicts per unit of the Luby restart sequence.
const RESTART_BASE: u64 = 100;

/// The CDCL(T) solver, parameterized by a background theory `T` and a
/// decision guide `G`.
pub struct Solver<T: Theory = NoTheory, G: DecisionGuide = NoGuide> {
    /// The background theory (public: clients register atoms on it).
    pub theory: T,
    /// The decision guide (public: clients may inspect/replace it).
    pub guide: G,

    db: ClauseDb,
    /// Watch lists by literal code, in one [`Lists`] family.
    watches: Lists<Watcher>,
    /// Normalization buffer of [`Self::add_clause`], reused across calls.
    intake: Vec<Lit>,

    /// The value of each literal, by literal code (both literals of a
    /// variable are written together), so a literal's value is one load.
    lit_values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    phase: Vec<bool>,
    is_theory_atom: Vec<bool>,

    trail: Vec<Lit>,
    trail_lim: Vec<u32>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: crate::heap::ActivityHeap,
    cla_inc: f32,

    ok: bool,
    model: Vec<LBool>,

    // analyze scratch: every buffer below keeps its capacity across
    // conflicts, so conflict analysis allocates nothing once warm.
    seen: Vec<u8>,
    analyze_toclear: Vec<Lit>,
    analyze_stack: Vec<Lit>,
    /// Reason literals of the literal being resolved or minimized.
    reason_buf: Vec<Lit>,
    /// Holds the next conflict clause; trades places with `reason_buf`
    /// while `analyze` resolves.
    conflict_buf: Vec<Lit>,
    /// The clause `analyze` learns.
    learnt: Vec<Lit>,
    lbd_stamp: Vec<u32>,
    lbd_counter: u32,

    max_learnts: f64,
    restart_count: u64,

    stats: Stats,
    budget: Budget,
    /// Why the last `solve` call returned `Unknown`, when it did.
    exhaustion: Option<ExhaustionReason>,
    theory_out: TheoryOut,
    proof: Option<Proof>,
    /// Verbatim copy of every clause passed to [`Self::add_clause`] while
    /// proof logging is enabled — the CNF a proof checker must start from.
    logged_cnf: Vec<Vec<Lit>>,
    /// Subset of the last call's assumptions responsible for `Unsat`.
    assumption_core: Vec<Lit>,
    /// Structured-event receiver; `None` (the default) keeps every emission
    /// site down to a single branch.
    sink: Option<Arc<dyn EventSink>>,
    /// Interference class of each variable ([`VarClass::Other`] until
    /// [`Self::set_var_class`] says otherwise): splits the decision counts,
    /// and clauses touching an external-RF variable export under the
    /// relaxed `lbd_max_hot` cap.
    var_class: Vec<VarClass>,
    /// Decisions per class since the last conflict, closed into each
    /// [`Event::Conflict`].
    conflict_window: [u64; VarClass::COUNT],
    /// Portfolio clause-sharing endpoint (`None` outside `--share` runs).
    share: Option<MemberEndpoint>,
    /// Set by the budget stride poll when the pool holds unread clauses;
    /// nudges the next restart forward so imports land promptly.
    share_pull_due: bool,
    /// `stats.sh_import_hits` at the last [`Event::Share`] emission.
    share_hits_reported: u64,
}

impl Solver<NoTheory, NoGuide> {
    /// Creates a plain SAT solver (no theory, no guide).
    pub fn new() -> Self {
        Solver::with_parts(NoTheory, NoGuide)
    }
}

impl Default for Solver<NoTheory, NoGuide> {
    fn default() -> Self {
        Solver::new()
    }
}

impl<T: Theory, G: DecisionGuide> Solver<T, G> {
    /// Creates a solver around a theory and a decision guide.
    pub fn with_parts(theory: T, guide: G) -> Self {
        Solver {
            theory,
            guide,
            db: ClauseDb::new(),
            watches: Lists::new(),
            intake: Vec::new(),
            lit_values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            phase: Vec::new(),
            is_theory_atom: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: crate::heap::ActivityHeap::new(),
            cla_inc: 1.0,
            ok: true,
            model: Vec::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            reason_buf: Vec::new(),
            conflict_buf: Vec::new(),
            learnt: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            max_learnts: 0.0,
            restart_count: 0,
            stats: Stats::default(),
            budget: Budget::default(),
            exhaustion: None,
            theory_out: TheoryOut::default(),
            proof: None,
            logged_cnf: Vec::new(),
            assumption_core: Vec::new(),
            sink: None,
            var_class: Vec::new(),
            conflict_window: [0; VarClass::COUNT],
            share: None,
            share_pull_due: false,
            share_hits_reported: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.level.len() as u32);
        self.lit_values.extend([LBool::Undef; 2]);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.phase.push(false);
        self.is_theory_atom.push(false);
        self.activity.push(0.0);
        self.seen.push(0);
        self.lbd_stamp.push(0);
        self.var_class.push(VarClass::Other);
        self.watches.add_lists(2);
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Marks `v` so its assignments are forwarded to the theory.
    pub fn mark_theory_var(&mut self, v: Var) {
        self.is_theory_atom[v.index()] = true;
    }

    /// Sets the solving budget (conflict cap / deadline).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Records `v`'s interference class: it splits the decision counts, and
    /// clauses touching an external-RF variable export under the relaxed
    /// `lbd_max_hot` cap.
    pub fn set_var_class(&mut self, v: Var, class: VarClass) {
        self.var_class[v.index()] = class;
    }

    /// Installs (or removes) a structured-event sink. With a sink in place
    /// the solver streams decisions, conflicts, restarts, learnt-DB
    /// reductions and share import hits to it; without one, each emission
    /// site is a single never-taken branch. Counters stay in [`Stats`].
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.sink = sink;
    }

    #[inline]
    fn emit(&self, ev: Event) {
        if let Some(s) = &self.sink {
            s.emit(ev);
        }
    }

    /// Joins a portfolio share pool: theory cycle lemmas export as they are
    /// raised and learnt clauses at conflict time, foreign clauses import at
    /// restart-to-root boundaries.
    pub fn set_share(&mut self, spec: &ShareSpec) {
        self.share = Some(spec.endpoint());
    }

    /// Offers a clause to the share outbox and counts the outcome. Never
    /// touches the pool lock (the outbox publishes at the next exchange).
    fn share_offer(&mut self, class: ShareClass, lbd: u32, lits: &[Lit]) {
        let Some(ep) = self.share.as_mut() else {
            return;
        };
        if ep.offer(class, lbd, lits) {
            self.stats.sh_exported += 1;
            match class {
                ShareClass::Theory => self.stats.sh_exported_theory += 1,
                ShareClass::Interference => self.stats.sh_exported_rf += 1,
                ShareClass::Generic => {}
            }
        } else {
            self.stats.sh_dropped += 1;
        }
    }

    /// Offers the freshly learnt clause to the share outbox. Learnt clauses
    /// are RUP only against *this* member's clause DB, so under proof
    /// logging (--certify) they are not exportable: importers could not
    /// justify them in a replayable proof. The theory lemmas
    /// [`Self::theory_conflict`] offers still ship, since a certifier
    /// re-derives each one from its clause.
    fn share_export(&mut self, learnt: &[Lit], lbd: u32, from_theory: bool) {
        if self.proof.is_some() || learnt.is_empty() {
            return;
        }
        let class = if from_theory {
            ShareClass::Theory
        } else if learnt
            .iter()
            .any(|l| self.var_class[l.var().index()] == VarClass::ExternalRf)
        {
            ShareClass::Interference
        } else {
            ShareClass::Generic
        };
        self.share_offer(class, lbd, learnt);
    }

    /// Publishes the outbox and attaches every unseen foreign clause. Must
    /// run at decision level 0 (restart-to-root boundary or solve entry) so
    /// units enqueue on the root trail and attachments are trail-safe.
    /// Returns `Some(Unsat)` when an import closes the formula at the root.
    fn share_exchange(&mut self) -> Option<SolveResult> {
        let mut ep = self.share.take()?;
        debug_assert_eq!(self.decision_level(), 0);
        self.share_pull_due = false;
        ep.flush();
        let mut incoming = Vec::new();
        self.stats.sh_dropped += ep.drain_imports(&mut incoming);
        self.share = Some(ep);
        let mut result = None;
        for c in incoming {
            // All members blast one SSA instance, so variable numberings
            // agree on every variable both have created; a clause over a
            // variable this solver has not created cannot be attached.
            // Sweeps never get here: they solve under assumptions, which
            // skip the exchange (DESIGN.md §6g).
            if c.lits.iter().any(|l| l.var().index() >= self.num_vars()) {
                self.stats.sh_dropped += 1;
                continue;
            }
            // Under proof logging only theory lemmas can enter: a peer's
            // learnt clause would leave a hole in the replayed proof.
            if self.proof.is_some() && !c.lemma {
                self.stats.sh_dropped += 1;
                continue;
            }
            if self.import_clause(&c) {
                self.stats.sh_imported += 1;
            } else {
                self.stats.sh_dropped += 1;
            }
            if !self.ok {
                result = Some(SolveResult::Unsat);
                break;
            }
        }
        self.emit_import_hits();
        result
    }

    /// Normalizes and attaches one imported clause at the root level, the
    /// same way [`Self::add_clause`] treats input clauses. Returns `false`
    /// if the clause was dropped (tautology or already satisfied at root).
    /// Sets `ok = false` when the import empties at the root.
    fn import_clause(&mut self, shared: &SharedClause) -> bool {
        // Log the lemma verbatim: a certifier checks it exactly like a
        // locally derived one (`proof_lemma` is a no-op without a proof).
        self.proof_lemma(&shared.lits);
        let mut c = shared.lits.clone();
        c.sort_unstable();
        c.dedup();
        let mut w = 0;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return false; // tautology
            }
            match self.value(l) {
                LBool::True => return false, // satisfied at root
                LBool::False => {}           // drop
                LBool::Undef => {
                    c[w] = l;
                    w += 1;
                }
            }
        }
        c.truncate(w);
        if c.len() < shared.lits.len() {
            // Root-level strengthening: RUP from the logged lemma + units.
            self.proof_add(&c.clone());
        }
        match c.len() {
            0 => {
                if shared.lits.is_empty() {
                    self.proof_add(&[]);
                }
                self.ok = false;
                true
            }
            1 => {
                let ok = self.enqueue(c[0], Reason::None);
                debug_assert!(ok);
                true
            }
            _ => {
                let cr = self.db.add(&c, true);
                // Theory lemmas arrive without an LBD; length is the
                // conservative stand-in (avoids glue-keeping them all).
                let lbd = if shared.lemma {
                    c.len() as u32
                } else {
                    shared.lbd
                };
                self.db.set_lbd(cr, lbd);
                self.db.set_activity(cr, self.cla_inc);
                self.db.mark_imported(cr);
                self.attach(cr);
                true
            }
        }
    }

    /// Emits the import hits since the last emission, if any, as one
    /// [`Event::Share`].
    fn emit_import_hits(&mut self) {
        let hits = self.stats.sh_import_hits - self.share_hits_reported;
        if hits > 0 {
            self.share_hits_reported = self.stats.sh_import_hits;
            self.emit(Event::Share { import_hits: hits });
        }
    }

    /// End-of-solve share housekeeping: publish the outbox (the winner's
    /// final lemmas still reach slower members), and report the import hits
    /// since the last exchange, which a member that never restarted after
    /// its last import would otherwise never report.
    fn share_finish(&mut self) {
        let Some(ep) = self.share.as_mut() else {
            return;
        };
        ep.flush();
        self.emit_import_hits();
    }

    /// Conflicts allowed before the next restart: the Luby sequence times
    /// [`RESTART_BASE`].
    fn restart_limit(&self) -> u64 {
        Self::luby(self.restart_count) * RESTART_BASE
    }

    /// Enables DRAT proof logging. Clauses learnt from theory conflicts are
    /// recorded as [`crate::proof::ProofStep::Lemma`] steps together with
    /// the input CNF (see [`Self::logged_cnf`]); validate such proofs with
    /// [`crate::proof::check_with_lemmas`] and a theory-side re-checker.
    pub fn enable_proof_logging(&mut self) {
        self.proof = Some(Proof::default());
        self.logged_cnf.clear();
    }

    /// Takes the recorded proof, leaving logging enabled with a fresh log.
    pub fn take_proof(&mut self) -> Option<Proof> {
        self.proof
            .take()
            .inspect(|_| self.proof = Some(Proof::default()))
    }

    /// Every clause added while proof logging was enabled, verbatim — the
    /// CNF against which the recorded proof should be checked.
    pub fn logged_cnf(&self) -> &[Vec<Lit>] {
        &self.logged_cnf
    }

    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.add(lits);
        }
    }

    fn proof_lemma(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.lemma(lits);
        }
    }

    /// Search statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current learnt-clause database cap (0 before the first solve). The
    /// cap is rescaled against the problem size at every solve entry, so on
    /// an incremental sweep it tracks clause growth monotonically.
    pub fn learnt_cap(&self) -> f64 {
        self.max_learnts
    }

    /// Why the last `solve`/`solve_with_assumptions` call returned
    /// [`SolveResult::Unknown`]; `None` after a definitive answer.
    pub fn exhaustion(&self) -> Option<ExhaustionReason> {
        self.exhaustion
    }

    /// O(1) estimate of the solver's resident footprint in bytes: the clause
    /// arena (problem + learnt clauses, u32 words), the trail, the
    /// per-variable bookkeeping (assignment, level, reason, phase, activity,
    /// watch lists, heap slot — ~64 bytes amortized per variable), and the
    /// theory's own estimate ([`Theory::memory_bytes`]). This is
    /// deliberately an estimate, not an allocator query: it is cheap enough
    /// to consult on the periodic budget stride and deterministic across
    /// platforms, which keeps memory-cap exhaustion reproducible.
    pub fn memory_bytes(&self) -> u64 {
        let arena = self.db.arena_len() as u64 * 4;
        let trail = self.trail.capacity() as u64 * 4;
        let per_var = self.num_vars() as u64 * 64;
        // Each clause holds two watchers; approximate their storage without
        // walking the watch lists (which would make the stride poll O(vars)).
        let watchers = (self.db.num_problem() + self.db.num_learnt()) as u64
            * 2
            * std::mem::size_of::<Watcher>() as u64;
        // Under `--share`, the member's outbox/dedup set plus the broadcast
        // ring (imported clauses themselves live in the arena, counted
        // above) — keeps the batch harness's memory cap honest.
        let share = self.share.as_ref().map_or(0, |ep| ep.memory_bytes() as u64);
        arena + trail + per_var + watchers + share + self.theory.memory_bytes()
    }

    /// Current value of a literal.
    #[inline]
    pub fn value(&self, lit: Lit) -> LBool {
        self.lit_values[lit.code()]
    }

    /// Current value of a variable.
    #[inline]
    pub fn var_value(&self, v: Var) -> LBool {
        self.lit_values[v.positive().code()]
    }

    /// Value of a literal in the model of the last `Sat` answer.
    pub fn model_value(&self, lit: Lit) -> LBool {
        self.model[lit.var().index()].xor_sign(!lit.sign())
    }

    /// Value of a variable in the model of the last `Sat` answer.
    pub fn model_var_value(&self, v: Var) -> LBool {
        self.model[v.index()]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (conflicting units at the root level).
    ///
    /// Must be called at decision level 0 (i.e. before `solve`, or between
    /// incremental solves — this solver is single-shot per `solve` call but
    /// clauses may be added after a result to continue).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        if self.proof.is_some() {
            self.logged_cnf.push(lits.to_vec());
        }
        // Normalize in the reusable intake buffer.
        let mut c = std::mem::take(&mut self.intake);
        c.clear();
        c.extend_from_slice(lits);
        let ok = self.add_normalized(&mut c, lits.len());
        self.intake = c;
        ok
    }

    /// Sorts and dedups the copy `c` of an input clause of `input_len`
    /// literals, drops its root-false literals, and adds what remains:
    /// nothing for a tautology or a root-satisfied clause, a root unit, or
    /// an arena clause.
    fn add_normalized(&mut self, c: &mut Vec<Lit>, input_len: usize) -> bool {
        c.sort_unstable();
        c.dedup();
        let mut w = 0;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: v ∨ ¬v
            }
            match self.value(l) {
                LBool::True => return true, // satisfied at root
                LBool::False => {}          // drop
                LBool::Undef => {
                    c[w] = l;
                    w += 1;
                }
            }
        }
        c.truncate(w);
        // Record root-level strengthenings (dropped false/duplicate
        // literals yield a RUP-derivable subset of the input clause).
        if c.len() < input_len {
            self.proof_add(c);
        }
        match c.len() {
            0 => {
                if input_len == 0 {
                    // Not covered by the strengthening emission above.
                    self.proof_add(&[]);
                }
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], Reason::None);
                true
            }
            _ => {
                let cr = self.db.add(c, false);
                self.attach(cr);
                true
            }
        }
    }

    fn attach(&mut self, cr: CRef) {
        let lits = self.db.lits(cr);
        let (w0, w1, binary) = (lits[0], lits[1], lits.len() == 2);
        self.watches
            .push((!w0).code(), Watcher::new(cr, w1, binary));
        self.watches
            .push((!w1).code(), Watcher::new(cr, w0, binary));
    }

    /// Assigns `lit` true. Returns `false` if it is already false.
    fn enqueue(&mut self, lit: Lit, reason: Reason) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = lit.var().index();
                self.lit_values[lit.code()] = LBool::True;
                self.lit_values[(!lit).code()] = LBool::False;
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = lit.sign();
                if !matches!(reason, Reason::None) {
                    self.stats.propagations += 1;
                }
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation + eager theory assertion, to fixpoint.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;

            if let Some(confl) = self.propagate_bool(p) {
                self.qhead = self.trail.len();
                return Some(confl);
            }
            if self.is_theory_atom[p.var().index()] {
                if let Some(confl) = self.assert_to_theory(p) {
                    self.qhead = self.trail.len();
                    return Some(confl);
                }
            }
        }
        None
    }

    /// Processes the Boolean watch list of the newly-true literal `p`. The
    /// scan indexes the list's buffer slots directly: pushes onto other
    /// lists never move this one.
    fn propagate_bool(&mut self, p: Lit) -> Option<Conflict> {
        let list = p.code();
        let slots = self.watches.slots(list);
        let false_lit = !p;
        // Only a share endpoint imports clauses, so without one no clause
        // carries the imported flag and the header read is skipped.
        let count_hits = self.share.is_some();
        let mut kept = slots.start;
        let mut conflict = None;
        let mut i = slots.start;
        'watchers: while i < slots.end {
            let w = self.watches[i];
            i += 1;
            // Fast path: blocker already true.
            let blocker_value = self.lit_values[w.blocker.code()];
            if blocker_value.is_true() {
                self.watches[kept] = w;
                kept += 1;
                continue;
            }
            let cr = w.cref();
            let (first, first_value) = if w.is_binary() {
                // The blocker is the other literal: the clause is unit or
                // conflicting without a look at the arena.
                self.watches[kept] = w;
                kept += 1;
                (w.blocker, blocker_value)
            } else {
                let lits = self.db.lits_mut(cr);
                // Make sure the false watched literal (!p) is at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_value = self.lit_values[first.code()];
                if first != w.blocker && first_value.is_true() {
                    // Satisfied; re-watch with the true literal as blocker.
                    self.watches[kept] = Watcher::new(cr, first, false);
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch among lits[2..].
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if !self.lit_values[lk.code()].is_false() {
                        lits.swap(1, k);
                        self.watches
                            .push((!lk).code(), Watcher::new(cr, first, false));
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                self.watches[kept] = Watcher::new(cr, first, false);
                kept += 1;
                (first, first_value)
            };
            if count_hits && self.db.is_imported(cr) {
                self.stats.sh_import_hits += 1;
            }
            if first_value.is_false() {
                // Conflict: copy remaining watchers back before reporting.
                let mut lits = std::mem::take(&mut self.conflict_buf);
                lits.clear();
                if w.is_binary() {
                    lits.extend_from_slice(&[first, false_lit]);
                } else {
                    lits.extend_from_slice(self.db.lits(cr));
                }
                conflict = Some(Conflict {
                    lits,
                    from_theory: false,
                });
                break;
            }
            let ok = self.enqueue(first, Reason::Clause(cr));
            debug_assert!(ok);
        }
        // Retain unprocessed watchers (after a conflict) and survivors.
        self.watches.finish_scan(list, kept, i);
        conflict
    }

    /// Forwards `p` to the theory and integrates its reaction.
    fn assert_to_theory(&mut self, p: Lit) -> Option<Conflict> {
        let mut out = std::mem::take(&mut self.theory_out);
        out.clear();
        let result = self.theory.assert_lit(p, &mut out);
        let confl = match result {
            Err(tc) => Some(self.theory_conflict(tc)),
            Ok(()) => {
                let mut found = None;
                for &q in &out.propagations {
                    match self.value(q) {
                        LBool::True => {}
                        LBool::Undef => {
                            self.stats.theory_propagations += 1;
                            // Record the explanation clause eagerly: a
                            // level-0 theory propagation feeding a level-0
                            // conflict never reaches `analyze`, so logging
                            // lazily would leave a hole in the proof.
                            if self.proof.is_some() {
                                let ants = self.theory.explain(q);
                                let mut lits = vec![q];
                                lits.extend(ants.iter().map(|&a| !a));
                                self.proof_lemma(&lits);
                            }
                            let ok = self.enqueue(q, Reason::Theory);
                            debug_assert!(ok);
                        }
                        LBool::False => {
                            // Propagation of a false literal: the explanation
                            // clause (q ∨ ¬a₁ ∨ … ∨ ¬aₖ) is falsified.
                            self.stats.theory_conflicts += 1;
                            let mut lits = std::mem::take(&mut self.conflict_buf);
                            lits.clear();
                            lits.push(q);
                            let ants = self.theory.explain(q);
                            lits.extend(ants.iter().map(|&a| !a));
                            self.proof_lemma(&lits);
                            found = Some(Conflict {
                                lits,
                                from_theory: true,
                            });
                            break;
                        }
                    }
                }
                found
            }
        };
        self.theory_out = out;
        confl
    }

    /// Turns a theory conflict (true literals) into the falsified clause of
    /// their negations, built in the reusable conflict buffer. The clause is
    /// a theory lemma: it is logged, and offered to portfolio peers before
    /// the clause conflict analysis learns from it.
    fn theory_conflict(&mut self, tc: TheoryConflict) -> Conflict {
        self.stats.theory_conflicts += 1;
        let mut lits = std::mem::take(&mut self.conflict_buf);
        lits.clear();
        lits.extend(tc.lits.iter().map(|&l| !l));
        self.proof_lemma(&lits);
        self.share_offer(ShareClass::Theory, 0, &lits);
        Conflict {
            lits,
            from_theory: true,
        }
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len() as u32);
        self.theory.new_level();
        self.guide.on_new_level();
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize] as usize;
        for i in (lim..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.lit_values[lit.code()] = LBool::Undef;
            self.lit_values[(!lit).code()] = LBool::Undef;
            self.reason[v.index()] = Reason::None;
            // phase[] keeps the last assigned polarity (phase saving).
            // Under a guide most variables are never popped, so most are
            // still enqueued: test membership before the call.
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = lim;
        self.theory.backtrack_to(target);
        self.guide.on_backtrack(target);
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rounding can merge two activities into a tie that reverses
            // the heap's order on some pair; repair before the next pop.
            self.order.rebuild(&self.activity);
        }
        self.order.bumped(v);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn bump_clause(&mut self, cr: CRef) {
        let a = self.db.activity(cr) + self.cla_inc;
        self.db.set_activity(cr, a);
        if a > CLA_RESCALE_LIMIT {
            self.db.scale_learnt_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// The literals of the reason for `p` being true, *excluding* `p`
    /// (they are all currently false). Bumps clause activity as a side
    /// effect, as in MiniSat.
    fn reason_lits(&mut self, p: Lit, buf: &mut Vec<Lit>) {
        buf.clear();
        match self.reason[p.var().index()] {
            Reason::None => {}
            Reason::Clause(cr) => {
                if self.db.is_learnt(cr) {
                    self.bump_clause(cr);
                }
                let lits = self.db.lits(cr);
                if lits.len() == 2 && lits[1] == p {
                    // Binary watchers never reorder the arena, so a binary
                    // reason may hold its implied literal in either slot.
                    buf.push(lits[0]);
                } else {
                    debug_assert_eq!(lits[0], p, "implied literal must sit at position 0");
                    buf.extend_from_slice(&lits[1..]);
                }
            }
            Reason::Theory => {
                let ants = self.theory.explain(p);
                buf.extend(ants.iter().map(|&a| !a));
            }
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backjump level and
    /// the clause LBD.
    fn analyze(&mut self, conflict: Conflict) -> (u32, u32) {
        let current = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // slot 0 = UIP
        let mut counter = 0u32;
        let mut index = self.trail.len();
        let mut clause: Vec<Lit> = conflict.lits;
        let mut reason_buf = std::mem::take(&mut self.reason_buf);
        let uip;

        loop {
            #[allow(clippy::needless_range_loop)] // `clause` is swapped below
            for i in 0..clause.len() {
                let q = clause[i];
                debug_assert!(self.value(q).is_false());
                let v = q.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    self.seen[v.index()] = 1;
                    self.analyze_toclear.push(q);
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            debug_assert!(counter > 0, "conflict must involve the current level");
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != 0 {
                    break;
                }
            }
            let pl = self.trail[index];
            // Consume pl: resolve it away (MiniSat clears its mark here so
            // that clause minimization sees exactly the learnt-clause vars).
            self.seen[pl.var().index()] = 0;
            counter -= 1;
            if counter == 0 {
                uip = pl;
                break;
            }
            self.reason_lits(pl, &mut reason_buf);
            std::mem::swap(&mut clause, &mut reason_buf);
        }
        learnt[0] = !uip;
        self.conflict_buf = clause;
        self.reason_buf = reason_buf;

        // Recursive minimization of the non-asserting literals.
        let abstract_levels = learnt[1..].iter().fold(0u32, |acc, l| {
            acc | Self::abstract_level(self.level[l.var().index()])
        });
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let keep = match self.reason[l.var().index()] {
                Reason::None => true,
                _ => !self.lit_redundant(l, abstract_levels),
            };
            if keep {
                learnt[j] = l;
                j += 1;
            } else {
                self.stats.minimized_lits += 1;
            }
        }
        learnt.truncate(j);

        // Find backjump level = max level among learnt[1..]; move it to slot 1.
        let mut back_level = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            back_level = self.level[learnt[1].var().index()];
        }

        // LBD: number of distinct decision levels in the learnt clause.
        let stamp = self.next_lbd_stamp();
        let mut lbd = 0u32;
        for &l in &learnt {
            let lv = self.level[l.var().index()] as usize;
            if self.lbd_stamp.len() <= lv {
                self.lbd_stamp.resize(lv + 1, 0);
            }
            if self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }

        // Clear the seen[] marks.
        for &l in &self.analyze_toclear {
            self.seen[l.var().index()] = 0;
        }
        self.analyze_toclear.clear();

        self.learnt = learnt;
        (back_level, lbd)
    }

    /// Parks the LBD stamp counter at `c` (wrap-around tests).
    #[cfg(test)]
    fn set_lbd_counter(&mut self, c: u32) {
        self.lbd_counter = c;
    }

    /// Advances the LBD stamp. On wrap-around every level stamp is cleared
    /// first: a stale stamp equal to the new value would read as counted.
    fn next_lbd_stamp(&mut self) -> u32 {
        self.lbd_counter = self.lbd_counter.wrapping_add(1);
        if self.lbd_counter == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_counter = 1;
        }
        self.lbd_counter
    }

    #[inline]
    fn abstract_level(level: u32) -> u32 {
        1 << (level & 31)
    }

    /// MiniSat's `litRedundant`: can `l` be removed from the learnt clause
    /// because it is implied by other marked literals?
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_toclear.len();
        let mut reason_buf = std::mem::take(&mut self.reason_buf);
        let mut redundant = true;
        'stack: while let Some(q) = self.analyze_stack.pop() {
            // Stack literals come from clause bodies, so they are false; the
            // reason of the variable implies the *true* literal ¬q.
            debug_assert!(self.value(q).is_false());
            debug_assert!(!matches!(self.reason[q.var().index()], Reason::None));
            self.reason_lits(!q, &mut reason_buf);
            for &a in &reason_buf {
                let v = a.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    let has_reason = !matches!(self.reason[v.index()], Reason::None);
                    if has_reason
                        && Self::abstract_level(self.level[v.index()]) & abstract_levels != 0
                    {
                        self.seen[v.index()] = 1;
                        self.analyze_stack.push(a);
                        self.analyze_toclear.push(a);
                    } else {
                        for &x in &self.analyze_toclear[top..] {
                            self.seen[x.var().index()] = 0;
                        }
                        self.analyze_toclear.truncate(top);
                        redundant = false;
                        break 'stack;
                    }
                }
            }
        }
        self.reason_buf = reason_buf;
        redundant
    }

    /// Installs a learnt clause and asserts its UIP literal.
    fn record_learnt(&mut self, learnt: &[Lit], lbd: u32) {
        self.proof_add(learnt);
        self.stats.learnt_clauses += 1;
        self.stats.learnt_literals += learnt.len() as u64;
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            let ok = self.enqueue(learnt[0], Reason::None);
            debug_assert!(ok);
        } else {
            let cr = self.db.add(learnt, true);
            self.db.set_lbd(cr, lbd);
            self.db.set_activity(cr, self.cla_inc);
            self.attach(cr);
            let ok = self.enqueue(learnt[0], Reason::Clause(cr));
            debug_assert!(ok);
        }
    }

    /// Halves the learnt-clause database, keeping low-LBD and active clauses,
    /// then compacts the arena.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut learnts: Vec<CRef> = self
            .db
            .iter()
            .filter(|&c| self.db.is_learnt(c) && !self.locked(c))
            .collect();
        // Sort worst-first: high LBD, then low activity.
        learnts.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = learnts.len() / 2;
        let mut removed = 0;
        for &c in learnts.iter() {
            if removed >= target {
                break;
            }
            if self.db.lbd(c) <= 2 {
                continue; // glue clauses are kept forever
            }
            if let Some(p) = &mut self.proof {
                p.delete(self.db.lits(c));
            }
            self.detach(c);
            self.db.delete(c);
            removed += 1;
        }
        // Compact when a third of the arena is garbage.
        if self.db.wasted() * 3 > self.db.arena_len() {
            self.garbage_collect();
        }
        self.emit(Event::Reduction {
            removed: removed as u64,
        });
    }

    fn locked(&self, cr: CRef) -> bool {
        let lits = self.db.lits(cr);
        // A binary clause's implied literal may sit in either slot.
        let slots = if lits.len() == 2 { 2 } else { 1 };
        lits[..slots]
            .iter()
            .any(|&l| self.value(l).is_true() && self.reason[l.var().index()] == Reason::Clause(cr))
    }

    fn detach(&mut self, cr: CRef) {
        let lits = self.db.lits(cr);
        let (w0, w1) = (lits[0], lits[1]);
        for w in [w0, w1] {
            let list = (!w).code();
            let pos = self
                .watches
                .list(list)
                .iter()
                .position(|x| x.cref() == cr)
                .expect("watched clause present in watch list");
            self.watches.swap_remove(list, pos);
        }
    }

    fn garbage_collect(&mut self) {
        // `collect` walks the arena front to back, so the move list comes
        // out sorted by old reference and relocation is a binary search.
        let mut moves: Vec<(CRef, CRef)> =
            Vec::with_capacity(self.db.num_problem() + self.db.num_learnt());
        self.db.collect(|old, new| moves.push((old, new)));
        let reloc = |cr: CRef| {
            moves
                .binary_search_by_key(&cr, |&(old, _)| old)
                .ok()
                .map(|i| moves[i].1)
        };
        for list in 0..self.watches.num_lists() {
            for w in self.watches.list_mut(list) {
                let cr = reloc(w.cref()).expect("watched clause survives collection");
                *w = Watcher::new(cr, w.blocker, w.is_binary());
            }
        }
        self.watches.compact();
        for r in &mut self.reason {
            if let Reason::Clause(cr) = r {
                if let Some(n) = reloc(*cr) {
                    *cr = n;
                } else {
                    // The clause was deleted; this can only happen for
                    // unlocked reasons of unassigned vars — reset defensively.
                    *r = Reason::None;
                }
            }
        }
    }

    /// Closes the decision window at a conflict and reports both.
    fn emit_conflict(&mut self, level: u32, lbd: u32) {
        let window = std::mem::take(&mut self.conflict_window);
        self.emit(Event::Conflict { level, lbd, window });
    }

    /// Picks and enqueues the next decision. Returns `false` when every
    /// variable is assigned. Assumptions (if any) are asserted first, one
    /// decision level each; a falsified assumption aborts the search via
    /// [`Self::analyze_final`].
    fn decide(&mut self, assumptions: &[Lit]) -> DecideOutcome {
        let (lit, guided) = 'pick: {
            // 0. Pending assumptions take the next decision levels.
            while (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.value(a) {
                    LBool::True => {
                        // Already implied: open an empty level to keep the
                        // level↔assumption correspondence.
                        self.new_decision_level();
                    }
                    LBool::False => {
                        self.analyze_final(!a);
                        return DecideOutcome::AssumptionConflict;
                    }
                    LBool::Undef => break 'pick (a, false),
                }
            }
            // 1. The guide (the paper's enhanced decide()).
            if let Some(lit) = self
                .guide
                .next_decision(AssignView::new(&self.lit_values, &self.phase))
            {
                debug_assert!(self.value(lit).is_undef(), "guide returned an assigned var");
                break 'pick (lit, true);
            }
            // 2. VSIDS with phase saving.
            loop {
                match self.order.pop(&self.activity) {
                    Some(v) if self.var_value(v).is_undef() => {
                        break 'pick (v.lit(self.phase[v.index()]), false)
                    }
                    Some(_) => {}
                    None => return DecideOutcome::AllAssigned,
                }
            }
        };
        let var = lit.var().index();
        let class = self.var_class[var];
        self.stats.decisions += 1;
        self.stats.class_decisions[class.index()] += 1;
        if guided {
            self.stats.guided_decisions += 1;
            self.stats.class_guided[class.index()] += 1;
        }
        self.conflict_window[class.index()] += 1;
        self.new_decision_level();
        let ok = self.enqueue(lit, Reason::None);
        debug_assert!(ok);
        self.emit(Event::Decision {
            var: var as u32,
            class,
            level: self.decision_level(),
            guided,
        });
        DecideOutcome::Decided
    }

    /// MiniSat's `analyzeFinal`: computes which assumptions imply the
    /// falsified literal `p`, filling [`Self::assumption_core`] with the
    /// conflicting subset (as the original assumption literals).
    fn analyze_final(&mut self, p: Lit) {
        self.assumption_core.clear();
        self.assumption_core.push(!p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = 1;
        let mut reason_buf = std::mem::take(&mut self.reason_buf);
        let start = self.trail_lim[0] as usize;
        for i in (start..self.trail.len()).rev() {
            let q = self.trail[i];
            let x = q.var();
            if self.seen[x.index()] == 0 {
                continue;
            }
            if matches!(self.reason[x.index()], Reason::None) {
                debug_assert!(self.level[x.index()] > 0);
                // A decision inside the assumption prefix is an assumption;
                // it is on the trail in exactly the polarity it was given.
                self.assumption_core.push(q);
            } else {
                self.reason_lits(q, &mut reason_buf);
                for &l in &reason_buf {
                    if self.level[l.var().index()] > 0 {
                        self.seen[l.var().index()] = 1;
                    }
                }
            }
            self.seen[x.index()] = 0;
        }
        self.seen[p.var().index()] = 0;
        self.reason_buf = reason_buf;
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut size: u64 = 1;
        let mut seq: u32 = 0;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Runs the CDCL(T) search to completion or budget exhaustion.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// The subset of the last `solve_with_assumptions` call's assumptions
    /// that was responsible for an `Unsat` answer (empty when the formula
    /// is unsatisfiable regardless of assumptions).
    pub fn assumption_core(&self) -> &[Lit] {
        &self.assumption_core
    }

    /// Solves under the given assumption literals: they are asserted as the
    /// first decisions and retracted afterwards, enabling incremental use.
    /// On `Unsat`, [`Self::assumption_core`] names a conflicting subset.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = self.solve_with_assumptions_inner(assumptions);
        self.share_finish();
        result
    }

    fn solve_with_assumptions_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.assumption_core.clear();
        self.exhaustion = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.budget.start();
        // Pick up clauses other members published before this call; with a
        // non-empty assumption prefix imports wait for restart-to-root
        // boundaries (which a prefix never reaches), so sharing is
        // effectively per-call for sweep-style incremental use.
        if assumptions.is_empty() {
            if let Some(r) = self.share_exchange() {
                return r;
            }
        }
        // The conflict budget is per call: measure against a snapshot, not
        // the lifetime counter, or the second incremental solve would start
        // pre-exhausted.
        let conflict_base = self.stats.conflicts;
        // Rescale the learnt-DB cap against the *current* problem size
        // (monotone max): clauses added between incremental calls must not
        // leave a sweep thrashing `reduce_db` with a first-call-sized cap.
        self.max_learnts = self
            .max_learnts
            .max((self.db.num_problem() as f64 / 3.0).max(2000.0));
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_limit = self.restart_limit();
        // Deadlines and cancellation must fire even on conflict-free
        // instances, so poll them every `stride` work units (propagations +
        // decisions), amortizing the `Instant::now()` cost. Starting at 0
        // makes a pre-tripped token return before any search happens.
        let mut next_budget_check: u64 = 0;

        loop {
            let work = self.stats.propagations + self.stats.decisions;
            if work >= next_budget_check {
                next_budget_check = work + self.budget.stride();
                if let Some(reason) = self.budget.interrupted_reason() {
                    self.exhaustion = Some(reason);
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                if self.budget.memory_exceeded(self.memory_bytes()) {
                    self.exhaustion = Some(ExhaustionReason::Memory);
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                // One relaxed atomic load: note pending imports so the next
                // restart is pulled forward. Never touches the pool lock.
                if !self.share_pull_due {
                    if let Some(ep) = &self.share {
                        self.share_pull_due = ep.pending();
                    }
                }
            }
            let conflict = match self.propagate() {
                Some(c) => Some(c),
                None => {
                    match self.decide(assumptions) {
                        DecideOutcome::AssumptionConflict => {
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        DecideOutcome::Decided => None,
                        DecideOutcome::AllAssigned => {
                            // Complete assignment: theory final check.
                            let mut out = std::mem::take(&mut self.theory_out);
                            out.clear();
                            let r = self.theory.final_check(&mut out);
                            // Eager theories do not propagate in final check.
                            debug_assert!(out.propagations.is_empty());
                            self.theory_out = out;
                            match r {
                                Ok(()) => {
                                    // Each variable's value is that of its
                                    // positive literal (the odd codes).
                                    self.model.clear();
                                    self.model.extend(self.lit_values.iter().skip(1).step_by(2));
                                    self.cancel_until(0);
                                    return SolveResult::Sat;
                                }
                                Err(tc) => Some(self.theory_conflict(tc)),
                            }
                        }
                    }
                }
            };

            match conflict {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    let conflict_level = self.decision_level();
                    if conflict_level == 0 {
                        self.emit_conflict(0, 0);
                        self.proof_add(&[]);
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let from_theory = confl.from_theory;
                    let (back_level, lbd) = self.analyze(confl);
                    self.emit_conflict(conflict_level, lbd);
                    self.cancel_until(back_level);
                    let learnt = std::mem::take(&mut self.learnt);
                    if self.share.is_some() {
                        self.share_export(&learnt, lbd, from_theory);
                    }
                    self.record_learnt(&learnt, lbd);
                    self.learnt = learnt;
                    self.decay_var_activity();
                    self.decay_clause_activity();
                    if let Some(reason) = self
                        .budget
                        .exhausted_reason(self.stats.conflicts - conflict_base)
                    {
                        self.exhaustion = Some(reason);
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                None => {
                    // A restart pulled forward by pending imports only pays
                    // off when it reaches the root (prefix 0); hold it back
                    // until the descent has done real work, or constant
                    // import traffic degenerates the restart schedule into
                    // a fixed short fuse and the member thrashes between
                    // root exchanges instead of searching.
                    let share_kick = self.share_pull_due
                        && assumptions.is_empty()
                        && conflicts_since_restart >= restart_limit.clamp(16, 64);
                    if conflicts_since_restart >= restart_limit || share_kick {
                        self.stats.restarts += 1;
                        self.emit(Event::Restart {
                            conflicts: conflicts_since_restart,
                        });
                        self.restart_count += 1;
                        restart_limit = self.restart_limit();
                        conflicts_since_restart = 0;
                        // Restart to the assumption-prefix level (MiniSat
                        // semantics): the prefix stays assigned so the next
                        // descent does not re-decide every assumption.
                        let prefix = (assumptions.len() as u32).min(self.decision_level());
                        self.cancel_until(prefix);
                        self.guide.on_restart();
                        if prefix == 0 {
                            if let Some(r) = self.share_exchange() {
                                return r;
                            }
                        }
                        continue;
                    }
                    // Imported clauses never count against the learnt cap:
                    // importing must not trigger rescales that evict the
                    // member's own learnt clauses (they remain eligible for
                    // reduce_db aging like any learnt clause, though).
                    let own_learnt = self.db.num_learnt() - self.db.num_imported();
                    if own_learnt as f64 >= self.max_learnts {
                        self.max_learnts *= 1.2;
                        self.reduce_db();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::stats::CancelToken;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn event_sink_mirrors_stats() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Collect(Mutex<Vec<Event>>);
        impl EventSink for Collect {
            fn emit(&self, ev: Event) {
                self.0.lock().unwrap().push(ev);
            }
        }
        let sink = Arc::new(Collect::default());
        // PHP(7,6) with the guide front-loading the first pigeon's holes:
        // guided and VSIDS decisions, conflicts and restarts.
        let guide = crate::PriorityListGuide::new((0..6).collect(), 0);
        let mut s = Solver::with_parts(NoTheory, guide);
        s.set_event_sink(Some(sink.clone()));
        let (n_p, n_h) = (7, 6);
        let x: Vec<Vec<Var>> = (0..n_p)
            .map(|_| (0..n_h).map(|_| s.new_var()).collect())
            .collect();
        for (p, row) in x.iter().enumerate() {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
            // Pigeon p's holes get class p mod 4, so every class decides.
            for &v in row {
                s.set_var_class(v, VarClass::ALL[p % VarClass::COUNT]);
            }
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = *s.stats();
        assert!(stats.guided_decisions > 0 && stats.restarts > 0);
        assert_eq!(stats.class_decisions.iter().sum::<u64>(), stats.decisions);
        assert_eq!(
            stats.class_guided.iter().sum::<u64>(),
            stats.guided_decisions
        );

        // Replay the stream: per-class decision and guided counts, and
        // each conflict's window equals the decisions since the previous
        // conflict.
        let mut decisions = [0u64; VarClass::COUNT];
        let mut guided = [0u64; VarClass::COUNT];
        let mut open = [0u64; VarClass::COUNT];
        let (mut conflicts, mut restarts, mut reductions) = (0, 0, 0);
        for ev in sink.0.lock().unwrap().iter() {
            match *ev {
                Event::Decision {
                    var,
                    class,
                    guided: g,
                    ..
                } => {
                    assert_eq!(class, s.var_class[var as usize]);
                    decisions[class.index()] += 1;
                    guided[class.index()] += g as u64;
                    open[class.index()] += 1;
                }
                Event::Conflict { window, .. } => {
                    assert_eq!(window, std::mem::take(&mut open));
                    conflicts += 1;
                }
                Event::Restart { .. } => restarts += 1,
                Event::Reduction { .. } => reductions += 1,
                _ => {}
            }
        }
        assert_eq!(decisions, stats.class_decisions);
        assert_eq!(guided, stats.class_guided);
        assert_eq!(conflicts, stats.conflicts);
        assert_eq!(restarts, stats.restarts);
        assert_eq!(reductions, stats.reductions);
        assert_eq!(open, s.conflict_window);
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v.positive()).is_true());
    }

    #[test]
    fn conflicting_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]) || s.solve() == SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // v0, v0→v1, v1→v2, v2→v3
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        assert!(s.add_clause(&[v[1].negative(), v[2].positive()]));
        assert!(s.add_clause(&[v[2].negative(), v[3].positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        for vi in &v {
            assert!(s.model_value(vi.positive()).is_true());
        }
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p0h0 ∧ p1h0 impossible with at-most-one.
        let mut s = Solver::new();
        let p0 = s.new_var();
        let p1 = s.new_var();
        assert!(s.add_clause(&[p0.positive()]));
        assert!(s.add_clause(&[p1.positive()]));
        assert!(!s.add_clause(&[p0.negative(), p1.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): each pigeon in some hole; no two pigeons share a hole.
        let mut s = Solver::new();
        let n_p = 3;
        let n_h = 2;
        let x: Vec<Vec<Var>> = (0..n_p).map(|_| vars(&mut s, n_h)).collect();
        for p in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|h| x[p][h].positive()).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    assert!(s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]));
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts >= 1);
    }

    #[test]
    fn xor_chain_sat_with_model_check() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x2 ⊕ x0 = 0 — consistent.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            // a ⊕ b = 1  ⇔  (a∨b) ∧ (¬a∨¬b)
            assert!(s.add_clause(&[a.positive(), b.positive()]));
            assert!(s.add_clause(&[a.negative(), b.negative()]));
        };
        let xnor = |s: &mut Solver, a: Var, b: Var| {
            assert!(s.add_clause(&[a.positive(), b.negative()]));
            assert!(s.add_clause(&[a.negative(), b.positive()]));
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xnor(&mut s, v[2], v[0]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m: Vec<bool> = v
            .iter()
            .map(|&x| s.model_value(x.positive()).is_true())
            .collect();
        assert!(m[0] != m[1]);
        assert!(m[1] != m[2]);
        assert!(m[2] == m[0]);
    }

    #[test]
    fn xor_cycle_odd_unsat() {
        // x0⊕x1=1, x1⊕x2=1, x2⊕x0=1 has odd parity — unsat.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            assert!(s.add_clause(&[v[a].positive(), v[b].positive()]));
            assert!(s.add_clause(&[v[a].negative(), v[b].negative()]));
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[0].positive()]));
        assert!(s.add_clause(&[v[1].positive(), v[1].negative()])); // tautology
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0].positive()).is_true());
    }

    #[test]
    fn budget_conflict_cap_reports_unknown() {
        // PHP(8,7) is hard enough to exceed a 3-conflict budget.
        let mut s = Solver::new();
        let n_p = 8;
        let n_h = 7;
        let x: Vec<Vec<Var>> = (0..n_p).map(|_| vars(&mut s, n_h)).collect();
        for p in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|h| x[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
        s.set_budget(Budget::with_max_conflicts(3));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion(), Some(ExhaustionReason::Conflicts));
    }

    #[test]
    fn memory_cap_reports_unknown_with_memory_reason() {
        // PHP(8,7) again, under a cap smaller than the solver's baseline
        // footprint so the very first stride poll trips it. The solver must
        // abort with a structured reason instead of growing without bound.
        let mut s = Solver::new();
        let n_p = 8;
        let n_h = 7;
        let x: Vec<Vec<Var>> = (0..n_p).map(|_| vars(&mut s, n_h)).collect();
        for p in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|h| x[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
        assert!(s.memory_bytes() > 64);
        s.set_budget(Budget::unlimited().with_max_memory(64).with_check_stride(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion(), Some(ExhaustionReason::Memory));
        // A solvable budget afterwards clears the exhaustion marker.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.exhaustion(), None);
    }

    #[test]
    fn cancelled_solve_reports_cancelled_reason() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let tok = CancelToken::new();
        tok.cancel();
        s.set_budget(Budget::unlimited().with_cancel(tok).with_check_stride(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        for i in 0..5 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().propagations >= 5);
        // No conflicts in a Horn chain.
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn model_is_cleared_and_reusable_after_more_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Forbid the found model and solve again; eventually unsat after
        // forbidding all four assignments.
        for _ in 0..4 {
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| {
                    if s.model_value(x.positive()).is_true() {
                        x.negative()
                    } else {
                        x.positive()
                    }
                })
                .collect();
            if !s.add_clause(&block) {
                break;
            }
            if s.solve() == SolveResult::Unsat {
                break;
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(Solver::<NoTheory, NoGuide>::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn random_3sat_smoke() {
        // Deterministic pseudo-random 3-SAT instances near the phase
        // transition; verify models of SAT answers.
        let mut state = 0xdeadbeefcafef00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let n = 20 + (round % 5);
            let m = (n as f64 * 4.2) as usize;
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut clauses = Vec::new();
            let mut ok = true;
            for _ in 0..m {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let vi = (next() % n as u64) as usize;
                    let sign = next() & 1 == 1;
                    let lit = v[vi].lit(sign);
                    if !c.contains(&lit) && !c.contains(&!lit) {
                        c.push(lit);
                    }
                }
                clauses.push(c.clone());
                ok &= s.add_clause(&c);
            }
            let r = if ok { s.solve() } else { SolveResult::Unsat };
            if r == SolveResult::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.model_value(l).is_true()),
                        "model violates a clause"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod share_tests {
    use super::*;
    use crate::share::{ShareConfig, SharedPool};

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    fn spec(pool: &Arc<SharedPool>, member: u32) -> ShareSpec {
        ShareSpec {
            pool: Arc::clone(pool),
            member,
            cfg: ShareConfig::default(),
        }
    }

    /// Every watcher must reference a live clause that actually watches the
    /// literal whose list it sits on — the dangling-watcher invariant.
    fn check_watches(s: &Solver) {
        for code in 0..s.watches.num_lists() {
            let watched = !Lit::from_code(code as u32);
            for w in s.watches.list(code) {
                assert!(!s.db.is_deleted(w.cref()), "watcher on deleted clause");
                let lits = s.db.lits(w.cref());
                assert!(
                    lits[0] == watched || lits[1] == watched,
                    "clause does not watch the literal whose list holds it"
                );
                assert_eq!(w.is_binary(), lits.len() == 2, "binary flag mismatch");
                if w.is_binary() {
                    assert!(
                        lits.contains(&w.blocker) && w.blocker != watched,
                        "binary blocker is not the clause's other literal"
                    );
                }
            }
        }
    }

    #[test]
    fn imported_clause_survives_backtracking_and_gc() {
        let pool = SharedPool::new(64);
        let mut exporter = spec(&pool, 0).endpoint();
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        // xor-ish constraints force decisions, conflicts, and backtracking.
        for i in 0..4 {
            assert!(s.add_clause(&[v[i].positive(), v[i + 4].positive()]));
            assert!(s.add_clause(&[v[i].negative(), v[i + 4].negative()]));
        }
        assert!(exporter.offer(
            ShareClass::Generic,
            2,
            &[v[0].positive(), v[1].positive(), v[2].positive()]
        ));
        exporter.flush();
        s.set_share(&spec(&pool, 1));
        // The import lands at solve entry; the search then backtracks over
        // it repeatedly before reaching Sat.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().sh_imported, 1);
        let imported: Vec<CRef> = s.db.iter().filter(|&c| s.db.is_imported(c)).collect();
        assert_eq!(imported.len(), 1);
        assert_eq!(s.db.num_imported(), 1);
        check_watches(&s);
        // Reduce + compact like the search would: the imported clause must
        // relocate without leaving dangling watchers.
        s.reduce_db();
        s.garbage_collect();
        check_watches(&s);
        // Now force-delete it the way reduce_db evicts a clause and compact
        // again: the watcher lists must drop it cleanly.
        let survivor = s.db.iter().find(|&c| s.db.is_imported(c));
        if let Some(cr) = survivor {
            assert!(!s.locked(cr), "nothing is assigned after solve");
            s.detach(cr);
            s.db.delete(cr);
            s.garbage_collect();
            check_watches(&s);
            assert_eq!(s.db.num_imported(), 0);
        }
    }

    #[test]
    fn imported_clause_propagates_and_counts_hits() {
        let pool = SharedPool::new(16);
        let mut exporter = spec(&pool, 0).endpoint();
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].negative(), v[1].negative()]));
        // Import (v0 ∨ v1): whichever variable is decided false first makes
        // the imported clause propagate the other — an import hit.
        assert!(exporter.offer(ShareClass::Theory, 0, &[v[0].positive(), v[1].positive()]));
        exporter.flush();
        s.set_share(&spec(&pool, 1));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().sh_imported, 1);
        assert!(s.stats().sh_import_hits >= 1, "imported clause never fired");
        // The model satisfies the imported clause too.
        assert!(
            s.model_value(v[0].positive()).is_true() || s.model_value(v[1].positive()).is_true()
        );
    }

    #[test]
    fn share_round_trip_preserves_verdicts() {
        // Two members, one pool, same UNSAT pigeonhole CNF: the first run
        // exports its learnt clauses (flushed at exit), the second imports
        // them and must still answer Unsat.
        let pool = SharedPool::new(1024);
        let build = |sp: ShareSpec| {
            let mut s = Solver::new();
            let n_p = 4;
            let n_h = 3;
            let x: Vec<Vec<Var>> = (0..n_p).map(|_| vars(&mut s, n_h)).collect();
            for p in x.iter() {
                let c: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
                assert!(s.add_clause(&c));
            }
            for h in 0..n_h {
                let hole: Vec<Lit> = x.iter().map(|p| p[h].negative()).collect();
                for (i, &a) in hole.iter().enumerate() {
                    for &b in &hole[i + 1..] {
                        assert!(s.add_clause(&[a, b]));
                    }
                }
            }
            s.set_share(&sp);
            s
        };
        let mut a = build(spec(&pool, 0));
        assert_eq!(a.solve(), SolveResult::Unsat);
        assert!(a.stats().sh_exported > 0, "no clauses exported");
        let mut b = build(spec(&pool, 1));
        assert_eq!(b.solve(), SolveResult::Unsat);
        assert!(b.stats().sh_imported > 0, "no clauses imported");
    }

    #[test]
    fn import_drops_clauses_over_variables_not_yet_created() {
        // A sweep member two frames ahead exports a clause over its frame
        // activation variable; a member that has not created that variable
        // yet must drop the clause, not index past its own tables.
        let pool = SharedPool::new(16);
        let mut ahead = Solver::new();
        let w = vars(&mut ahead, 4);
        let mut exporter = spec(&pool, 0).endpoint();
        assert!(exporter.offer(ShareClass::Generic, 1, &[w[0].positive(), w[3].negative()]));
        exporter.flush();
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        s.set_share(&spec(&pool, 1));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().sh_imported, 0);
        assert_eq!(s.stats().sh_dropped, 1);
    }

    #[test]
    fn proof_logging_importer_admits_only_theory_lemmas() {
        // A peer's learnt clause is RUP only against the peer's database,
        // so a proof-logging member drops it; a theory lemma enters and is
        // logged as a lemma step.
        let pool = SharedPool::new(16);
        let mut exporter = spec(&pool, 0).endpoint();
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let learnt = [v[0].positive(), v[1].positive()];
        let lemma = [v[2].positive(), v[3].positive()];
        assert!(exporter.offer(ShareClass::Theory, 2, &learnt));
        assert!(exporter.offer(ShareClass::Theory, 0, &lemma));
        exporter.flush();
        s.enable_proof_logging();
        s.set_share(&spec(&pool, 1));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().sh_imported, 1);
        assert_eq!(s.stats().sh_dropped, 1);
        let proof = s.take_proof().expect("proof logging on");
        assert_eq!(
            proof.steps,
            vec![crate::proof::ProofStep::Lemma(lemma.to_vec())]
        );
    }

    #[test]
    fn unit_import_strengthens_at_root() {
        let pool = SharedPool::new(16);
        let mut exporter = spec(&pool, 0).endpoint();
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].negative()]));
        // (v0 ∨ v1) strengthens to the unit (v1) against the root trail.
        assert!(exporter.offer(ShareClass::Generic, 1, &[v[0].positive(), v[1].positive()]));
        exporter.flush();
        s.set_share(&spec(&pool, 1));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().sh_imported, 1);
        assert!(s.model_value(v[1].positive()).is_true());
        // Nothing attached: the unit went straight onto the root trail.
        assert_eq!(s.db.num_imported(), 0);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod assumption_tests {
    use super::*;

    #[test]
    fn sat_under_assumptions_and_unsat_under_others() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        // a → b
        s.add_clause(&[a.negative(), b.positive()]);
        assert_eq!(s.solve_with_assumptions(&[a.positive()]), SolveResult::Sat);
        assert!(s.model_value(b.positive()).is_true());
        // a ∧ ¬b is contradictory.
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.negative()]),
            SolveResult::Unsat
        );
        let core = s.assumption_core().to_vec();
        assert!(!core.is_empty());
        assert!(core
            .iter()
            .all(|l| [a.positive(), b.negative()].contains(l)));
        // The solver is reusable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn core_is_a_conflicting_subset() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        // v0 ∧ v1 → ⊥ via chain; v2, v3 irrelevant.
        s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[
                v[2].positive(),
                v[0].positive(),
                v[3].positive(),
                v[1].positive(),
            ]),
            SolveResult::Unsat
        );
        let core = s.assumption_core().to_vec();
        // The core must mention only the genuinely conflicting assumptions.
        assert!(core.contains(&v[0].positive()) || core.contains(&v[1].positive()));
        assert!(!core.contains(&v[2].positive()));
        assert!(!core.contains(&v[3].positive()));
    }

    #[test]
    fn globally_unsat_gives_empty_core() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        s.add_clause(&[a.negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.positive()]),
            SolveResult::Unsat
        );
        assert!(s.assumption_core().is_empty());
    }

    #[test]
    fn incremental_blocking_enumerates_models() {
        // Enumerate all models of (a ∨ b) via assumption-free solving with
        // blocking clauses — exercises solver reuse after Unsat answers.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        let mut models = 0;
        while s.solve() == SolveResult::Sat {
            models += 1;
            let block: Vec<Lit> = [a, b]
                .iter()
                .map(|&v| {
                    if s.model_value(v.positive()).is_true() {
                        v.negative()
                    } else {
                        v.positive()
                    }
                })
                .collect();
            if !s.add_clause(&block) {
                break;
            }
            assert!(models <= 3, "only three models exist");
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn assumptions_already_implied_are_free() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive()]); // a is a unit fact
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.positive()]),
            SolveResult::Sat
        );
        assert!(s.model_value(b.positive()).is_true());
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod config_tests {
    use super::*;

    fn hard_instance(s: &mut Solver) {
        // PHP(7,6): forces many conflicts.
        let n_p = 7;
        let n_h = 6;
        let x: Vec<Vec<Var>> = (0..n_p)
            .map(|_| (0..n_h).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|h| x[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
    }

    #[test]
    fn clause_database_reduction_kicks_in_on_hard_instances() {
        // PHP(8,7) produces tens of thousands of learnt clauses — enough to
        // cross the reduction threshold and exercise arena compaction.
        let mut s = Solver::new();
        let n_p = 8;
        let n_h = 7;
        let x: Vec<Vec<Var>> = (0..n_p)
            .map(|_| (0..n_h).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|h| x[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..n_h {
            for p1 in 0..n_p {
                for p2 in p1 + 1..n_p {
                    s.add_clause(&[x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().reductions >= 1 || s.stats().learnt_clauses < 2000,
            "expected a learnt-DB reduction: {} learnt, {} reductions",
            s.stats().learnt_clauses,
            s.stats().reductions
        );
    }

    #[test]
    fn lbd_stamp_survives_wrap_around() {
        // A counter parked at u32::MAX wraps on the first conflict. Levels
        // never stamped carry 0, so a wrap to 0 would count no level at all;
        // the solver must instead compute every LBD exactly as a fresh one.
        use zpre_obs::{EventKind, Recorder};
        let run = |park: bool| {
            let rec = Recorder::default();
            let mut s = Solver::new();
            s.set_event_sink(Some(Arc::new(rec.clone())));
            hard_instance(&mut s);
            if park {
                s.set_lbd_counter(u32::MAX);
            }
            assert_eq!(s.solve(), SolveResult::Unsat);
            let lbds: Vec<u32> = rec
                .snapshot()
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Conflict { lbd, .. } => Some(lbd),
                    _ => None,
                })
                .collect();
            (lbds, *s.stats())
        };
        let fresh = run(false);
        assert!(fresh.0.iter().skip(1).any(|&l| l > 0));
        assert_eq!(run(true), fresh);
    }
}
