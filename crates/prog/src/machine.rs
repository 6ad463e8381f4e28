//! One store-buffer machine for SC, TSO and PSO, and the explicit-state
//! oracle [`check`] that explores it.
//!
//! The machine runs the flat program at shared-access granularity (each
//! `LoadShared` / `StoreShared` is one step), with operational memory
//! models:
//!
//! - **SC**: a store commits to memory at its program point.
//! - **TSO** (x86-style): each thread has one FIFO store buffer. A store
//!   enqueues `(var, value)`; a load reads the newest same-variable entry
//!   of its own buffer (store forwarding) or memory; a *flush* commits the
//!   oldest entry.
//! - **PSO** (SPARC partial store order): stores to one variable commit in
//!   program order, stores to different variables in any order. The buffer
//!   is kept stably sorted by variable, so two states that differ only in
//!   how stores to different variables interleave are one state, and the
//!   oldest entry of each variable may flush.
//!
//! Fences, lock operations, atomic-section boundaries, spawn and join run
//! only on a drained buffer. A thread counts as finished (for `join`) only
//! when its code is done *and* its buffer has drained, matching the
//! synchronizing semantics of `pthread_join`.
//!
//! [`check`] enumerates every interleaving of instruction and flush steps;
//! [`replay`](crate::replay()) drives the same machine along one schedule.
//! They differ in what they do with a blocked step, a false assumption or
//! an unlock by a non-holder (discarded here, a mismatch there) and a havoc
//! (enumerated here, read from the model there).
//!
//! These operational models include store-to-load forwarding; the paper's
//! axiomatic po-relaxation encoding agrees with them on the standard litmus
//! families (SB, MP, LB, S, R, 2+2W, IRIW) of the test-suite, which is the
//! cross-validation contract.

use crate::ast::{BoolExpr, IntExpr};
use crate::flat::{FlatProgram, Instr};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Memory model selector (shared with the encoder).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemoryModel {
    /// Sequential consistency.
    Sc,
    /// Total store order.
    Tso,
    /// Partial store order.
    Pso,
}

impl MemoryModel {
    /// All three models, in the paper's order.
    pub const ALL: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

    /// Lower-case name as used in file names and tables.
    pub fn name(self) -> &'static str {
        match self {
            MemoryModel::Sc => "sc",
            MemoryModel::Tso => "tso",
            MemoryModel::Pso => "pso",
        }
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name().to_uppercase())
    }
}

/// Result of an exploration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// No reachable assertion violation.
    Safe,
    /// Some interleaving violates an assertion.
    Unsafe,
    /// The state limit was exceeded, or a havoc is wider than
    /// [`MAX_HAVOC_WIDTH`].
    ResourceLimit,
}

/// Exploration limits.
#[derive(Copy, Clone, Debug)]
pub struct Limits {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_states: 2_000_000,
        }
    }
}

/// Widest word whose havocs [`check`] enumerates exhaustively.
pub const MAX_HAVOC_WIDTH: u32 = 4;

/// Truncates `v` to `width` bits.
pub(crate) fn truncate(v: u64, width: u32) -> u64 {
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// Evaluates a local-only integer expression; `local` reads a local by
/// name (0 when it was never assigned).
fn eval_int(e: &IntExpr, local: &dyn Fn(&str) -> u64, width: u32) -> u64 {
    let int = |a: &IntExpr| eval_int(a, local, width);
    match e {
        IntExpr::Const(v) => truncate(*v, width),
        IntExpr::Var(x) => local(x),
        IntExpr::Nondet(n) => panic!("nondet {n:?} survived lowering"),
        IntExpr::Add(a, b) => truncate(int(a).wrapping_add(int(b)), width),
        IntExpr::Sub(a, b) => truncate(int(a).wrapping_sub(int(b)), width),
        IntExpr::Mul(a, b) => truncate(int(a).wrapping_mul(int(b)), width),
        IntExpr::BitAnd(a, b) => int(a) & int(b),
        IntExpr::BitOr(a, b) => int(a) | int(b),
        IntExpr::BitXor(a, b) => int(a) ^ int(b),
        IntExpr::Shl(a, by) => truncate(int(a) << by, width),
        IntExpr::Shr(a, by) => int(a) >> by,
        IntExpr::Ite(c, a, b) => {
            if eval_bool(c, local, width) {
                int(a)
            } else {
                int(b)
            }
        }
    }
}

/// Evaluates a local-only Boolean expression.
fn eval_bool(e: &BoolExpr, local: &dyn Fn(&str) -> u64, width: u32) -> bool {
    let int = |a: &IntExpr| eval_int(a, local, width);
    let bool_ = |a: &BoolExpr| eval_bool(a, local, width);
    match e {
        BoolExpr::Const(v) => *v,
        BoolExpr::Nondet(n) => panic!("nondet {n:?} survived lowering"),
        BoolExpr::Not(a) => !bool_(a),
        BoolExpr::And(a, b) => bool_(a) && bool_(b),
        BoolExpr::Or(a, b) => bool_(a) || bool_(b),
        BoolExpr::Eq(a, b) => int(a) == int(b),
        BoolExpr::Ne(a, b) => int(a) != int(b),
        BoolExpr::Lt(a, b) => int(a) < int(b),
        BoolExpr::Le(a, b) => int(a) <= int(b),
        BoolExpr::Gt(a, b) => int(a) > int(b),
        BoolExpr::Ge(a, b) => int(a) >= int(b),
    }
}

/// One machine state; per-thread vectors are indexed by thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct State {
    pub(crate) pcs: Vec<usize>,
    /// Every thread's locals, one slot each ([`Machine::slot`]); `None`
    /// until first assigned, so two states differ exactly when their
    /// threads have assigned different locals or values.
    locals: Vec<Option<u64>>,
    pub(crate) shared: Vec<u64>,
    /// Holder of each mutex.
    pub(crate) mutex: Vec<Option<usize>>,
    pub(crate) started: Vec<bool>,
    /// Atomic-section holder and nesting depth.
    pub(crate) atomic: Option<(usize, u32)>,
    /// One store buffer of `(var, value)` per thread, oldest first and
    /// stably sorted by variable under PSO; none under SC, whose states
    /// thus clone and hash no buffers.
    buffers: Vec<VecDeque<(usize, u64)>>,
}

impl State {
    /// Thread `t`'s store buffer (always empty under SC).
    pub(crate) fn buffer(&self, t: usize) -> &VecDeque<(usize, u64)> {
        static NONE: VecDeque<(usize, u64)> = VecDeque::new();
        self.buffers.get(t).unwrap_or(&NONE)
    }
}

/// Why a thread's next instruction cannot run now.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Blocked {
    /// A synchronizing instruction waits for the thread's buffer to drain.
    Undrained,
    /// `Lock` of a mutex the given thread holds.
    MutexHeld(usize),
    /// `Join` of a thread whose code or buffer is not done.
    JoinUnfinished,
    /// Another thread is inside an atomic section. Reported only when no
    /// other reason applies, so replay can ignore it alone.
    AtomicHeld,
}

/// What running one instruction did besides updating the state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Effect {
    /// The step completed.
    Done,
    /// An assertion evaluated false.
    Violation,
    /// A false assumption, or an unlock by a thread not holding the mutex:
    /// no execution continues from here.
    Infeasible,
}

/// The flat program under one memory model.
pub(crate) struct Machine<'a> {
    pub(crate) fp: &'a FlatProgram,
    pub(crate) mm: MemoryModel,
    /// Per thread: local name → its slot in [`State`]'s locals, for every
    /// local the thread assigns. Resolved once per program.
    slots: Vec<HashMap<&'a str, usize>>,
    num_slots: usize,
}

impl<'a> Machine<'a> {
    /// The machine for `fp` under `mm`.
    pub(crate) fn new(fp: &'a FlatProgram, mm: MemoryModel) -> Machine<'a> {
        let mut num_slots = 0;
        let slots = fp
            .threads
            .iter()
            .map(|th| {
                let mut slots = HashMap::new();
                for instr in &th.code {
                    if let Instr::LoadShared { dst, .. }
                    | Instr::AssignLocal { dst, .. }
                    | Instr::HavocInt { dst }
                    | Instr::HavocBool { dst } = instr
                    {
                        slots.entry(dst.as_str()).or_insert_with(|| {
                            num_slots += 1;
                            num_slots - 1
                        });
                    }
                }
                slots
            })
            .collect();
        Machine {
            fp,
            mm,
            slots,
            num_slots,
        }
    }

    /// The slot of thread `t`'s local `name`, if the thread ever assigns it.
    fn slot(&self, t: usize, name: &str) -> Option<usize> {
        self.slots[t].get(name).copied()
    }

    /// Thread `t`'s local `name` in `st` (0 until assigned).
    fn local(&self, st: &State, t: usize, name: &str) -> u64 {
        self.slot(t, name).and_then(|i| st.locals[i]).unwrap_or(0)
    }

    fn set_local(&self, st: &mut State, t: usize, name: &str, v: u64) {
        let i = self.slot(t, name).expect("assigned locals have slots");
        st.locals[i] = Some(v);
    }

    fn eval_int(&self, st: &State, t: usize, e: &IntExpr) -> u64 {
        eval_int(e, &|x| self.local(st, t, x), self.fp.word_width)
    }

    fn eval_bool(&self, st: &State, t: usize, e: &BoolExpr) -> bool {
        eval_bool(e, &|x| self.local(st, t, x), self.fp.word_width)
    }

    /// The initial state: only main is started, memory holds the
    /// initializers.
    pub(crate) fn initial(&self) -> State {
        let nt = self.fp.threads.len();
        let mut started = vec![false; nt];
        if nt > 0 {
            started[0] = true;
        }
        State {
            pcs: vec![0; nt],
            locals: vec![None; self.num_slots],
            shared: self.fp.shared_init.clone(),
            mutex: vec![None; self.fp.num_mutexes],
            started,
            atomic: None,
            buffers: match self.mm {
                MemoryModel::Sc => Vec::new(),
                MemoryModel::Tso | MemoryModel::Pso => vec![VecDeque::new(); nt],
            },
        }
    }

    /// Thread `t`'s next instruction, if it is started and not at its end.
    pub(crate) fn instr(&self, st: &State, t: usize) -> Option<&'a Instr> {
        let code = &self.fp.threads[t].code;
        st.started[t].then(|| code.get(st.pcs[t])).flatten()
    }

    fn finished(&self, st: &State, t: usize) -> bool {
        st.started[t] && self.instr(st, t).is_none() && st.buffer(t).is_empty()
    }

    /// Whether thread `t`'s next instruction may run now; requires
    /// [`Machine::instr`] to be `Some`.
    pub(crate) fn enabled(&self, st: &State, t: usize) -> Result<(), Blocked> {
        let blocked = match &self.fp.threads[t].code[st.pcs[t]] {
            Instr::Fence
            | Instr::AtomicBegin
            | Instr::AtomicEnd
            | Instr::Spawn(_)
            | Instr::Lock(_)
            | Instr::Unlock(_)
            | Instr::Join(_)
                if !st.buffer(t).is_empty() =>
            {
                Some(Blocked::Undrained)
            }
            Instr::Lock(m) => st.mutex[*m].map(Blocked::MutexHeld),
            Instr::Join(c) if !self.finished(st, *c) => Some(Blocked::JoinUnfinished),
            _ => None,
        };
        match (blocked, st.atomic) {
            (Some(b), _) => Err(b),
            (None, Some((holder, _))) if holder != t => Err(Blocked::AtomicHeld),
            _ => Ok(()),
        }
    }

    /// Runs thread `t`'s next instruction; a havoc stores `havoc`.
    pub(crate) fn step(&self, st: &mut State, t: usize, havoc: u64) -> Effect {
        let pc = st.pcs[t];
        st.pcs[t] += 1;
        match &self.fp.threads[t].code[pc] {
            Instr::LoadShared { dst, var } => {
                let v = self.load(st, t, *var);
                self.set_local(st, t, dst, v);
            }
            Instr::StoreShared { var, val } => {
                let v = self.eval_int(st, t, val);
                match self.mm {
                    MemoryModel::Sc => st.shared[*var] = v,
                    MemoryModel::Tso => st.buffers[t].push_back((*var, v)),
                    MemoryModel::Pso => {
                        let buf = &mut st.buffers[t];
                        let at = buf.partition_point(|&(x, _)| x <= *var);
                        buf.insert(at, (*var, v));
                    }
                }
            }
            Instr::AssignLocal { dst, val } => {
                let v = self.eval_int(st, t, val);
                self.set_local(st, t, dst, v);
            }
            Instr::HavocInt { dst } | Instr::HavocBool { dst } => {
                self.set_local(st, t, dst, havoc);
            }
            Instr::JmpIfFalse { cond, target } => {
                if !self.eval_bool(st, t, cond) {
                    st.pcs[t] = *target;
                }
            }
            Instr::Jmp { target } => st.pcs[t] = *target,
            Instr::Assert(cond) if !self.eval_bool(st, t, cond) => return Effect::Violation,
            Instr::Assume(cond) if !self.eval_bool(st, t, cond) => return Effect::Infeasible,
            Instr::Assert(_) | Instr::Assume(_) | Instr::Fence | Instr::Join(_) => {}
            Instr::Lock(m) => st.mutex[*m] = Some(t),
            Instr::Unlock(m) if st.mutex[*m] != Some(t) => return Effect::Infeasible,
            Instr::Unlock(m) => st.mutex[*m] = None,
            Instr::AtomicBegin => {
                st.atomic = Some(match st.atomic {
                    None => (t, 1),
                    Some((h, d)) => (h, d + 1),
                });
            }
            Instr::AtomicEnd => {
                st.atomic = match st.atomic {
                    Some((h, d)) if d > 1 => Some((h, d - 1)),
                    _ => None,
                };
            }
            Instr::Spawn(c) => st.started[*c] = true,
        }
        Effect::Done
    }

    /// The value a load of `var` by thread `t` observes: the newest
    /// buffered same-variable store (forwarding), else memory.
    pub(crate) fn load(&self, st: &State, t: usize, var: usize) -> u64 {
        let newest = st.buffer(t).iter().rev().find(|&&(x, _)| x == var);
        newest.map_or(st.shared[var], |&(_, v)| v)
    }

    /// Whether entry `i` of a buffer may commit next: the head under TSO,
    /// the oldest store to its variable under PSO.
    pub(crate) fn may_flush(&self, buf: &VecDeque<(usize, u64)>, i: usize) -> bool {
        i == 0 || (self.mm == MemoryModel::Pso && buf[i - 1].0 != buf[i].0)
    }

    /// Commits entry `i` of thread `t`'s buffer to memory.
    pub(crate) fn flush(&self, st: &mut State, t: usize, i: usize) {
        let (var, v) = st.buffers[t].remove(i).expect("flushed entry exists");
        st.shared[var] = v;
    }
}

/// Explores every interleaving of `fp` under `mm` (instruction steps and,
/// under TSO/PSO, buffer flushes) and reports whether an assertion can
/// fail.
///
/// Successors are generated flushes first, then instructions, threads
/// ascending, so the depth-first order and the `max_states` at which a
/// verdict first appears are stable.
pub fn check(fp: &FlatProgram, mm: MemoryModel, limits: Limits) -> Outcome {
    let m = Machine::new(fp, mm);
    // Each stored state is allocated once, shared by the visited set and,
    // until it is popped, the depth-first stack. Most successors were seen
    // before: look them up by value before allocating.
    let mut visited: HashSet<Rc<State>> = HashSet::new();
    let mut stack: Vec<Rc<State>> = Vec::new();
    let explore = |s: State, visited: &mut HashSet<Rc<State>>, stack: &mut Vec<Rc<State>>| {
        if !visited.contains(&s) {
            let s = Rc::new(s);
            visited.insert(Rc::clone(&s));
            stack.push(s);
        }
    };
    explore(m.initial(), &mut visited, &mut stack);
    while let Some(st) = stack.pop() {
        if visited.len() > limits.max_states {
            return Outcome::ResourceLimit;
        }
        for t in 0..fp.threads.len() {
            // Other threads' buffers are frozen inside an atomic section.
            if matches!(st.atomic, Some((holder, _)) if holder != t) {
                continue;
            }
            for i in 0..st.buffer(t).len() {
                if m.may_flush(st.buffer(t), i) {
                    let mut s = State::clone(&st);
                    m.flush(&mut s, t, i);
                    explore(s, &mut visited, &mut stack);
                }
            }
        }
        for t in 0..fp.threads.len() {
            let Some(instr) = m.instr(&st, t) else {
                continue;
            };
            if m.enabled(&st, t).is_err() {
                continue;
            }
            let width = match instr {
                Instr::HavocInt { .. } => fp.word_width,
                Instr::HavocBool { .. } => 1,
                _ => 0,
            };
            if width > MAX_HAVOC_WIDTH {
                return Outcome::ResourceLimit;
            }
            for v in 0..1u64 << width {
                let mut s = State::clone(&st);
                match m.step(&mut s, t, v) {
                    Effect::Done => explore(s, &mut visited, &mut stack),
                    Effect::Violation => return Outcome::Unsafe,
                    Effect::Infeasible => {}
                }
            }
        }
    }
    Outcome::Safe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::flat::flatten;
    use crate::unroll::unroll_program;

    /// Worker 256 increments `x` inside an atomic section after main set it
    /// to 10, so `x == 10` fails. Holders narrowed to `u8` made worker 256
    /// holder 0 and locked it out of its own section, so every execution
    /// deadlocked and the oracle answered `Safe`.
    #[test]
    fn atomic_holder_past_255_threads_is_not_truncated() {
        let n = 256;
        let mut b = ProgramBuilder::new("wide").shared("x", 0);
        for i in 1..=n {
            let body = if i == n {
                atomic(vec![assign("r", v("x")), assign("x", add(v("r"), c(1)))])
            } else {
                vec![]
            };
            b = b.thread(&format!("w{i}"), body);
        }
        let mut main: Vec<_> = (1..=n).map(spawn).collect();
        main.push(assign("x", c(10)));
        main.extend((1..=n).map(join));
        main.push(assert_(eq(v("x"), c(10))));
        let fp = flatten(&unroll_program(&b.main(main).build(), 1));
        for mm in MemoryModel::ALL {
            assert_eq!(check(&fp, mm, Limits::default()), Outcome::Unsafe, "{mm}");
        }
    }
}
