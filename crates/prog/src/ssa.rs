//! SSA conversion: symbolic execution of a loop-free program into events,
//! data-path constraints, and guarded assertions.
//!
//! This is the front-end half of the paper's pipeline (the role of the
//! modified CBMC): each syntactic shared-variable access becomes a *global
//! event* carrying a fresh SSA value variable and a *guard* (its path
//! condition); local variables are resolved to terms directly, with `ite`
//! merges at join points. Shared-variable initializers become the main
//! thread's first write events, exactly as in the paper's running example
//! (Fig. 2: `x₁ := 0`, `y₁ := 0` are events of `main`).
//!
//! The produced [`SsaProgram`] is memory-model independent; the encoder
//! derives Φ_po / Φ_rf / Φ_ws / Φ_fr from it per memory model.

use crate::ast::{BoolExpr, IntExpr, Program, Stmt};
use std::collections::{BTreeSet, HashMap};
use zpre_bv::{TermId, TermStore};

/// What a global event does.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Read of a shared variable; `value` is the fresh SSA variable the
    /// read binds (constrained only through the read-from relation).
    Read {
        /// Shared-variable index.
        var: usize,
        /// SSA value term (a fresh bit-vector variable).
        value: TermId,
    },
    /// Write of a shared variable; `value` is the fresh SSA variable
    /// equated with the right-hand side in Φ_ssa.
    Write {
        /// Shared-variable index.
        var: usize,
        /// SSA value term.
        value: TermId,
    },
    /// Mutex acquisition (fence-like).
    Lock {
        /// Mutex index.
        mutex: usize,
    },
    /// Mutex release (fence-like).
    Unlock {
        /// Mutex index.
        mutex: usize,
    },
    /// Full fence.
    Fence,
    /// Start of an atomic section.
    AtomicBegin {
        /// Index into [`SsaProgram::atomic_blocks`].
        block: usize,
    },
    /// End of an atomic section.
    AtomicEnd {
        /// Index into [`SsaProgram::atomic_blocks`].
        block: usize,
    },
    /// Thread creation (synchronizes: everything before it happens before
    /// everything in the child).
    Spawn {
        /// Spawned thread index.
        child: usize,
    },
    /// Thread join (child's events happen before everything after).
    Join {
        /// Joined thread index.
        child: usize,
    },
}

impl EventKind {
    /// The accessed shared variable, for read/write events.
    pub fn var(&self) -> Option<usize> {
        match self {
            EventKind::Read { var, .. } | EventKind::Write { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// The SSA value term, for read/write events.
    pub fn value(&self) -> Option<TermId> {
        match self {
            EventKind::Read { value, .. } | EventKind::Write { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// `true` for write events.
    pub fn is_write(&self) -> bool {
        matches!(self, EventKind::Write { .. })
    }

    /// `true` for read events.
    pub fn is_read(&self) -> bool {
        matches!(self, EventKind::Read { .. })
    }
}

/// A global event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global event id (index into [`SsaProgram::events`]).
    pub id: usize,
    /// Owning thread.
    pub thread: usize,
    /// Intra-thread position (the paper's `r_i`/`w_i` in variable names).
    pub pos: usize,
    /// Guard (path condition) term.
    pub guard: TermId,
    /// Payload.
    pub kind: EventKind,
}

/// An atomic section with the shared variables it touches.
#[derive(Clone, Debug)]
pub struct AtomicBlock {
    /// Owning thread.
    pub thread: usize,
    /// Event id of the `AtomicBegin`.
    pub begin: usize,
    /// Event id of the `AtomicEnd`.
    pub end: usize,
    /// Shared variables accessed inside.
    pub vars: BTreeSet<usize>,
}

/// The SSA form of a program.
pub struct SsaProgram {
    /// Term arena (data path).
    pub store: TermStore,
    /// Integer width.
    pub word_width: u32,
    /// Shared-variable names.
    pub shared_names: Vec<String>,
    /// Thread names.
    pub thread_names: Vec<String>,
    /// All global events, in creation order (per-thread program order is
    /// the order of ascending `pos` within one thread).
    pub events: Vec<Event>,
    /// Φ_ssa conjuncts: write-value definitions and assumption constraints.
    pub constraints: Vec<TermId>,
    /// Guarded safety assertions `(guard, cond)`; the error condition is
    /// `⋁ guard ∧ ¬cond`.
    pub assertions: Vec<(TermId, TermId)>,
    /// Atomic sections.
    pub atomic_blocks: Vec<AtomicBlock>,
    /// Names of nondeterministic inputs (bit-vector variables in `store`).
    pub nondet_names: Vec<String>,
}

impl SsaProgram {
    /// Events of one thread, in program order.
    pub fn thread_events(&self, thread: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.thread == thread)
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.thread_names.len()
    }
}

/// Converts a loop-free program to SSA. Panics on loops and on a program
/// that fails [`Program::validate`]; [`crate::to_ssa_traced`] reports the
/// latter as an error instead.
pub fn to_ssa(prog: &Program) -> SsaProgram {
    prog.validate().expect("program must validate");
    to_ssa_validated(prog)
}

/// [`to_ssa`] of a program that already passed [`Program::validate`].
pub(crate) fn to_ssa_validated(prog: &Program) -> SsaProgram {
    assert!(!prog.has_loops(), "to_ssa requires an unrolled program");
    let mut cx = Cx {
        prog,
        ts: TermStore::new(),
        events: Vec::new(),
        constraints: Vec::new(),
        assertions: Vec::new(),
        atomic_blocks: Vec::new(),
        nondet_names: Vec::new(),
        pos: vec![0; prog.threads.len()],
    };

    // Main thread first: shared initializers as its first write events.
    let tru = cx.ts.tru();
    for (i, (name, init)) in prog.shared.iter().enumerate() {
        let val = cx.ts.bv_const(*init, prog.word_width);
        let wvar = cx.fresh_value(name, 0);
        let def = cx.ts.eq(wvar, val);
        cx.constraints.push(def);
        cx.push_event(
            0,
            tru,
            EventKind::Write {
                var: i,
                value: wvar,
            },
        );
    }
    for (tid, thread) in prog.threads.iter().enumerate() {
        let mut ex = Exec {
            cx: &mut cx,
            thread: tid,
            guard: tru,
            locals: HashMap::new(),
            open_atomics: Vec::new(),
        };
        ex.stmts(&thread.body);
        assert!(
            ex.open_atomics.is_empty(),
            "unclosed atomic section in thread {tid}"
        );
    }

    SsaProgram {
        store: cx.ts,
        word_width: prog.word_width,
        shared_names: prog.shared.iter().map(|(n, _)| n.clone()).collect(),
        thread_names: prog.threads.iter().map(|t| t.name.clone()).collect(),
        events: cx.events,
        constraints: cx.constraints,
        assertions: cx.assertions,
        atomic_blocks: cx.atomic_blocks,
        nondet_names: cx.nondet_names,
    }
}

struct Cx<'a> {
    prog: &'a Program,
    ts: TermStore,
    events: Vec<Event>,
    constraints: Vec<TermId>,
    assertions: Vec<(TermId, TermId)>,
    atomic_blocks: Vec<AtomicBlock>,
    nondet_names: Vec<String>,
    pos: Vec<usize>,
}

impl Cx<'_> {
    fn push_event(&mut self, thread: usize, guard: TermId, kind: EventKind) -> usize {
        let id = self.events.len();
        let pos = self.pos[thread];
        self.pos[thread] += 1;
        self.events.push(Event {
            id,
            thread,
            pos,
            guard,
            kind,
        });
        id
    }

    fn fresh_value(&mut self, shared_name: &str, hint: usize) -> TermId {
        let n = self.events.len() + hint;
        self.ts
            .bv_var(format!("{shared_name}!{n}"), self.prog.word_width)
    }
}

struct Exec<'a, 'b> {
    cx: &'a mut Cx<'b>,
    thread: usize,
    guard: TermId,
    locals: HashMap<String, TermId>,
    open_atomics: Vec<usize>,
}

impl Exec<'_, '_> {
    fn note_atomic_access(&mut self, var: usize) {
        for &b in &self.open_atomics {
            self.cx.atomic_blocks[b].vars.insert(var);
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(x, e) => {
                let rhs = self.int(e);
                match self.cx.prog.shared_index(x) {
                    Some(var) => {
                        let wvar = self.cx.fresh_value(x, 0);
                        let def = self.cx.ts.eq(wvar, rhs);
                        self.cx.constraints.push(def);
                        self.cx.push_event(
                            self.thread,
                            self.guard,
                            EventKind::Write { var, value: wvar },
                        );
                        self.note_atomic_access(var);
                    }
                    None => {
                        self.locals.insert(x.clone(), rhs);
                    }
                }
            }
            Stmt::If(c, t, e) => {
                // Condition reads happen under the *current* guard.
                let cond = self.bool(c);
                let saved_guard = self.guard;
                let saved_locals = self.locals.clone();

                self.guard = self.cx.ts.and(saved_guard, cond);
                self.stmts(t);
                let then_locals = std::mem::replace(&mut self.locals, saved_locals);

                let ncond = self.cx.ts.not(cond);
                self.guard = self.cx.ts.and(saved_guard, ncond);
                self.stmts(e);
                let else_locals = std::mem::take(&mut self.locals);

                // φ-merge.
                let mut merged = HashMap::new();
                let zero = self.cx.ts.bv_const(0, self.cx.prog.word_width);
                let keys: BTreeSet<&String> =
                    then_locals.keys().chain(else_locals.keys()).collect();
                for k in keys {
                    let tv = *then_locals.get(k).unwrap_or(&zero);
                    let ev = *else_locals.get(k).unwrap_or(&zero);
                    merged.insert(k.clone(), self.cx.ts.bv_ite(cond, tv, ev));
                }
                self.locals = merged;
                self.guard = saved_guard;
            }
            Stmt::While(..) => unreachable!("loop survived unrolling"),
            Stmt::Assert(c) => {
                let cond = self.bool(c);
                self.cx.assertions.push((self.guard, cond));
            }
            Stmt::Assume(c) => {
                let cond = self.bool(c);
                let g = self.guard;
                let imp = self.cx.ts.implies(g, cond);
                self.cx.constraints.push(imp);
            }
            Stmt::Lock(m) => {
                let mutex = self.cx.prog.mutex_index(m).expect("validated");
                self.cx
                    .push_event(self.thread, self.guard, EventKind::Lock { mutex });
            }
            Stmt::Unlock(m) => {
                let mutex = self.cx.prog.mutex_index(m).expect("validated");
                self.cx
                    .push_event(self.thread, self.guard, EventKind::Unlock { mutex });
            }
            Stmt::Fence => {
                self.cx
                    .push_event(self.thread, self.guard, EventKind::Fence);
            }
            Stmt::AtomicBegin => {
                let block = self.cx.atomic_blocks.len();
                let id =
                    self.cx
                        .push_event(self.thread, self.guard, EventKind::AtomicBegin { block });
                self.cx.atomic_blocks.push(AtomicBlock {
                    thread: self.thread,
                    begin: id,
                    end: usize::MAX,
                    vars: BTreeSet::new(),
                });
                self.open_atomics.push(block);
            }
            Stmt::AtomicEnd => {
                let block = self
                    .open_atomics
                    .pop()
                    .expect("AtomicEnd without matching AtomicBegin");
                let id =
                    self.cx
                        .push_event(self.thread, self.guard, EventKind::AtomicEnd { block });
                self.cx.atomic_blocks[block].end = id;
            }
            Stmt::Spawn(i) => {
                self.cx
                    .push_event(self.thread, self.guard, EventKind::Spawn { child: *i });
            }
            Stmt::Join(i) => {
                self.cx
                    .push_event(self.thread, self.guard, EventKind::Join { child: *i });
            }
            Stmt::Skip => {}
        }
    }

    fn int(&mut self, e: &IntExpr) -> TermId {
        let w = self.cx.prog.word_width;
        match e {
            IntExpr::Const(v) => self.cx.ts.bv_const(*v, w),
            IntExpr::Var(x) => match self.cx.prog.shared_index(x) {
                Some(var) => {
                    let name = self.cx.prog.shared[var].0.clone();
                    let rvar = self.cx.fresh_value(&name, 0);
                    self.cx.push_event(
                        self.thread,
                        self.guard,
                        EventKind::Read { var, value: rvar },
                    );
                    self.note_atomic_access(var);
                    rvar
                }
                None => {
                    let zero = self.cx.ts.bv_const(0, w);
                    *self.locals.get(x).unwrap_or(&zero)
                }
            },
            IntExpr::Nondet(name) => {
                let full = format!("nd!{name}");
                self.cx.nondet_names.push(full.clone());
                self.cx.ts.bv_var(full, w)
            }
            IntExpr::Add(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_add(x, y)
            }
            IntExpr::Sub(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_sub(x, y)
            }
            IntExpr::Mul(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_mul(x, y)
            }
            IntExpr::BitAnd(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_and(x, y)
            }
            IntExpr::BitOr(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_or(x, y)
            }
            IntExpr::BitXor(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_xor(x, y)
            }
            IntExpr::Shl(a, by) => {
                let x = self.int(a);
                self.cx.ts.bv_shl_const(x, *by)
            }
            IntExpr::Shr(a, by) => {
                let x = self.int(a);
                self.cx.ts.bv_lshr_const(x, *by)
            }
            IntExpr::Ite(c, a, b) => {
                let lc = self.bool(c);
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.bv_ite(lc, x, y)
            }
        }
    }

    fn bool(&mut self, e: &BoolExpr) -> TermId {
        match e {
            BoolExpr::Const(v) => self.cx.ts.bool_const(*v),
            BoolExpr::Nondet(name) => {
                let full = format!("ndb!{name}");
                self.cx.ts.bool_var(full)
            }
            BoolExpr::Not(a) => {
                let x = self.bool(a);
                self.cx.ts.not(x)
            }
            BoolExpr::And(a, b) => {
                let (x, y) = (self.bool(a), self.bool(b));
                self.cx.ts.and(x, y)
            }
            BoolExpr::Or(a, b) => {
                let (x, y) = (self.bool(a), self.bool(b));
                self.cx.ts.or(x, y)
            }
            BoolExpr::Eq(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.eq(x, y)
            }
            BoolExpr::Ne(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.neq(x, y)
            }
            BoolExpr::Lt(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.ult(x, y)
            }
            BoolExpr::Le(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.ule(x, y)
            }
            BoolExpr::Gt(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.ult(y, x)
            }
            BoolExpr::Ge(a, b) => {
                let (x, y) = (self.int(a), self.int(b));
                self.cx.ts.ule(y, x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;

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

    #[test]
    fn init_writes_belong_to_main() {
        let ssa = to_ssa(&fig2());
        // Four shared variables → four init writes, thread 0, pos 0..4.
        for i in 0..4 {
            let e = &ssa.events[i];
            assert_eq!(e.thread, 0);
            assert_eq!(e.pos, i);
            assert!(e.kind.is_write());
        }
    }

    #[test]
    fn event_counts_match_fig2() {
        let ssa = to_ssa(&fig2());
        // t1: read y, write x, read y, write m  = 4 events.
        let t1: Vec<_> = ssa.thread_events(1).collect();
        assert_eq!(t1.len(), 4);
        assert!(t1[0].kind.is_read());
        assert!(t1[1].kind.is_write());
        assert!(t1[2].kind.is_read());
        assert!(t1[3].kind.is_write());
        // main: 4 init writes + 2 spawns + 2 joins + 2 assert reads = 10.
        let main: Vec<_> = ssa.thread_events(0).collect();
        assert_eq!(main.len(), 10);
        // Read events of the assertion come after the joins.
        assert!(matches!(main[4].kind, EventKind::Spawn { child: 1 }));
        assert!(matches!(main[7].kind, EventKind::Join { child: 2 }));
        assert!(main[8].kind.is_read());
        assert!(main[9].kind.is_read());
    }

    #[test]
    fn assertion_guard_is_true_at_top_level() {
        let ssa = to_ssa(&fig2());
        assert_eq!(ssa.assertions.len(), 1);
        let (g, _) = ssa.assertions[0];
        let mut ts = ssa.store.clone();
        assert_eq!(g, ts.tru());
    }

    #[test]
    fn branch_guards_attach_to_events() {
        let p = ProgramBuilder::new("b")
            .shared("x", 0)
            .shared("y", 0)
            .thread(
                "t",
                vec![if_(
                    eq(v("x"), c(0)),
                    vec![assign("y", c(1))],
                    vec![assign("y", c(2))],
                )],
            )
            .build();
        let ssa = to_ssa(&p);
        let t1: Vec<_> = ssa.thread_events(1).collect();
        // read x (guard true), write y (guard c), write y (guard ¬c).
        assert_eq!(t1.len(), 3);
        let mut ts = ssa.store.clone();
        let tru = ts.tru();
        assert_eq!(t1[0].guard, tru);
        assert_ne!(t1[1].guard, tru);
        assert_ne!(t1[2].guard, tru);
        assert_ne!(t1[1].guard, t1[2].guard);
    }

    #[test]
    fn local_merge_via_ite() {
        let p = ProgramBuilder::new("m")
            .shared("x", 0)
            .thread(
                "t",
                vec![
                    if_(
                        eq(v("x"), c(0)),
                        vec![assign("a", c(1))],
                        vec![assign("a", c(2))],
                    ),
                    assign("x", v("a")),
                ],
            )
            .build();
        let ssa = to_ssa(&p);
        // The final write's defining constraint references an ite term; we
        // simply check conversion succeeded and produced a write with the
        // expected shape (1 read + 1 write in t).
        let t1: Vec<_> = ssa.thread_events(1).collect();
        assert_eq!(t1.len(), 2);
        assert!(t1[1].kind.is_write());
    }

    #[test]
    fn atomic_blocks_record_vars() {
        let p = ProgramBuilder::new("a")
            .shared("x", 0)
            .shared("y", 0)
            .thread("t", atomic(vec![assign("x", c(1)), assign("r", v("y"))]))
            .build();
        let ssa = to_ssa(&p);
        assert_eq!(ssa.atomic_blocks.len(), 1);
        let b = &ssa.atomic_blocks[0];
        assert_eq!(b.thread, 1);
        assert!(b.end > b.begin);
        assert_eq!(b.vars, BTreeSet::from([0, 1]));
    }

    #[test]
    fn assumes_become_constraints() {
        let p = ProgramBuilder::new("as")
            .shared("x", 0)
            .main(vec![assume(lt(v("x"), c(3)))])
            .build();
        let ssa = to_ssa(&p);
        // 1 init def + 1 assumption.
        assert_eq!(ssa.constraints.len(), 2);
    }

    #[test]
    fn nondets_are_recorded() {
        let p = ProgramBuilder::new("nd")
            .shared("x", 0)
            .main(vec![assign("x", nondet("k"))])
            .build();
        let ssa = to_ssa(&p);
        assert_eq!(ssa.nondet_names, vec!["nd!k".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unrolled")]
    fn rejects_loops() {
        let p = ProgramBuilder::new("l")
            .shared("x", 0)
            .main(vec![while_(
                lt(v("x"), c(3)),
                vec![assign("x", add(v("x"), c(1)))],
            )])
            .build();
        let _ = to_ssa(&p);
    }
}
