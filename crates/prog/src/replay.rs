//! Schedule-driven witness replay on the store-buffer machine.
//!
//! The certification layer turns an `Unsafe` model into a *schedule* — the
//! model's global events (writes, reads, lock operations, fences, spawns,
//! joins) in clock order, each annotated with the value the model assigned
//! — plus the model's nondeterministic input values. [`replay`] then drives
//! the flat program through that schedule as an independent oracle: local
//! computation is executed concretely, every scheduled event must match the
//! next global instruction of its thread, and every observed value must
//! equal the model's. The replay succeeds only if some assertion concretely
//! evaluates to false; any divergence is a typed [`ReplayError`], never a
//! panic.
//!
//! Memory-model fidelity comes from [`crate::machine`], the machine the
//! oracle explores. Under SC every store commits at its program point, so
//! crossing an unscheduled store is a mismatch. Under TSO/PSO a store
//! crossed while advancing enters the buffer, and a scheduled `Write`
//! advances to its store if it is not buffered yet, then flushes it — which
//! must be the buffer head under TSO (W→W order) and the oldest store to
//! its variable under PSO. Loads forward from the newest same-variable
//! buffered store. A step the machine reports blocked is a mismatch, except
//! for another thread's atomic section: it excludes exactly what the
//! encoder keeps out of it, a read or write of a variable its block
//! accesses, and nothing else. Atomic boundaries are otherwise replayed as
//! ordering events — replay checks exactly what the model claims, not a
//! stronger global-exclusivity property. A false assumption or an unlock by
//! a non-holder, which the oracle silently discards, is a mismatch here.
//!
//! Initializer writes are *not* part of the schedule: the flat program has
//! no initializer instructions (`shared_init` supplies initial values), and
//! every scheduled event is ordered after the initializers by construction
//! (fence-like spawn edges for non-main threads, program order and
//! reads-from for main).

use crate::flat::{FlatProgram, Instr};
use crate::machine::{truncate, Blocked, Effect, Machine, MemoryModel, State};
use std::collections::{BTreeSet, HashMap};

/// One global event of the schedule, as the model ordered it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// A store to shared variable `var` committing value `value`.
    Write {
        /// Shared-variable index (into `FlatProgram::shared_names`).
        var: usize,
        /// The committed value in the model.
        value: u64,
    },
    /// A load of shared variable `var` observing `value`.
    Read {
        /// Shared-variable index.
        var: usize,
        /// The observed value in the model.
        value: u64,
    },
    /// Acquiring mutex `mutex`.
    Lock {
        /// Mutex index.
        mutex: usize,
    },
    /// Releasing mutex `mutex`.
    Unlock {
        /// Mutex index.
        mutex: usize,
    },
    /// A memory fence.
    Fence,
    /// Entering an atomic section.
    AtomicBegin,
    /// Leaving an atomic section.
    AtomicEnd,
    /// Spawning thread `child`.
    Spawn {
        /// Index of the spawned thread.
        child: usize,
    },
    /// Joining thread `child` (runs the child's trailing local code).
    Join {
        /// Index of the joined thread.
        child: usize,
    },
}

/// One step of the schedule: which thread performs which global event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The acting thread.
    pub thread: usize,
    /// The event it performs.
    pub op: ReplayOp,
}

/// A concretely confirmed assertion violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayViolation {
    /// Thread whose assertion fired.
    pub thread: usize,
    /// Program counter of the failing `Assert` instruction.
    pub pc: usize,
}

/// Why a replay did not confirm the witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The schedule diverged from the program's concrete behaviour.
    Mismatch {
        /// Index of the offending schedule step (`None` for the final
        /// sweep after the schedule was exhausted).
        step: Option<usize>,
        /// The thread being replayed.
        thread: usize,
        /// Human-readable divergence description.
        detail: String,
    },
    /// The replay ran to completion but no assertion fired.
    NoViolation,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Mismatch {
                step,
                thread,
                detail,
            } => match step {
                Some(i) => write!(f, "schedule step {i} (thread {thread}): {detail}"),
                None => write!(f, "final sweep (thread {thread}): {detail}"),
            },
            ReplayError::NoViolation => {
                write!(f, "replay completed but no assertion violation fired")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What [`Replayer::advance`] stopped on.
enum Stop {
    /// The thread's pc now points at a global instruction.
    Global,
    /// The thread ran off the end of its code.
    End,
    /// An assertion concretely failed at this pc.
    Violation(usize),
}

struct Replayer<'a> {
    m: Machine<'a>,
    st: State,
    nondet_ints: &'a HashMap<String, u64>,
    nondet_bools: &'a HashMap<String, bool>,
    /// Backstop against malformed jump targets: total instructions the
    /// replay may execute before giving up.
    fuel: usize,
    /// Current schedule-step index, for error reporting.
    step: Option<usize>,
    /// Per thread: the nesting depth of its open atomic sections and the
    /// shared variables of the outermost one ([`block_vars`]).
    atomic: Vec<(u32, BTreeSet<usize>)>,
}

/// The shared variables read or written between the `AtomicBegin` at
/// `begin` and its matching `AtomicEnd`: the accesses the encoder keeps
/// other threads out of while the section is open.
fn block_vars(code: &[Instr], begin: usize) -> BTreeSet<usize> {
    let mut depth = 0u32;
    let mut vars = BTreeSet::new();
    for instr in &code[begin..] {
        match instr {
            Instr::AtomicBegin => depth += 1,
            Instr::AtomicEnd if depth == 1 => break,
            Instr::AtomicEnd => depth -= 1,
            Instr::LoadShared { var, .. } | Instr::StoreShared { var, .. } => {
                vars.insert(*var);
            }
            _ => {}
        }
    }
    vars
}

impl<'a> Replayer<'a> {
    fn mismatch<T>(&self, thread: usize, detail: impl Into<String>) -> Result<T, ReplayError> {
        Err(ReplayError::Mismatch {
            step: self.step,
            thread,
            detail: detail.into(),
        })
    }

    /// Runs thread `t`'s local steps until a global instruction, the end of
    /// the code, or a concrete assertion violation. Havocs take the model's
    /// values. A store is a local step under TSO/PSO (it enters the buffer)
    /// unless it is the store to `stop_at_store`; under SC every store is a
    /// scheduled event, so crossing one is a mismatch.
    fn advance(&mut self, t: usize, stop_at_store: Option<usize>) -> Result<Stop, ReplayError> {
        let fp = self.m.fp;
        loop {
            if self.fuel == 0 {
                return self.mismatch(t, "replay fuel exhausted (malformed control flow)");
            }
            self.fuel -= 1;
            let pc = self.st.pcs[t];
            let Some(instr) = fp.threads[t].code.get(pc) else {
                return Ok(Stop::End);
            };
            let havoc = match instr {
                Instr::HavocInt { dst } => truncate(
                    self.nondet_ints.get(dst).copied().unwrap_or(0),
                    fp.word_width,
                ),
                Instr::HavocBool { dst } => {
                    self.nondet_bools.get(dst).copied().unwrap_or(false) as u64
                }
                Instr::StoreShared { var, .. } if stop_at_store != Some(*var) => {
                    if self.m.mm == MemoryModel::Sc {
                        let name = &fp.shared_names[*var];
                        return self.mismatch(t, format!("unscheduled store to {name} under SC"));
                    }
                    0
                }
                Instr::AssignLocal { .. }
                | Instr::Jmp { .. }
                | Instr::JmpIfFalse { .. }
                | Instr::Assert(_)
                | Instr::Assume(_) => 0,
                _ => return Ok(Stop::Global),
            };
            match self.m.step(&mut self.st, t, havoc) {
                Effect::Done => {}
                Effect::Violation => return Ok(Stop::Violation(pc)),
                Effect::Infeasible => {
                    return self.mismatch(t, "assumption evaluated false along the replayed path")
                }
            }
        }
    }

    /// Handles one scheduled event. `Ok(Some(violation))` short-circuits the
    /// whole replay with success.
    fn do_step(&mut self, t: usize, op: &ReplayOp) -> Result<Option<ReplayViolation>, ReplayError> {
        if !self.st.started[t] {
            return self.mismatch(t, "event scheduled on a thread that was never spawned");
        }
        let fp = self.m.fp;
        if let ReplayOp::Write { var, .. } | ReplayOp::Read { var, .. } = *op {
            let holder = self
                .atomic
                .iter()
                .enumerate()
                .position(|(u, (depth, vars))| u != t && *depth > 0 && vars.contains(&var));
            if let Some(u) = holder {
                let name = &fp.shared_names[var];
                return self.mismatch(
                    t,
                    format!("{op:?} of {name} inside thread {u}'s atomic section"),
                );
            }
        }
        let store = match *op {
            ReplayOp::Write { var, .. } => Some(var),
            _ => None,
        };
        let buffered = |st: &State, var| st.buffer(t).iter().position(|&(x, _)| x == var);
        // A `Write` of a store already in the buffer only commits it.
        if store.and_then(|var| buffered(&self.st, var)).is_none() {
            match self.advance(t, store)? {
                Stop::Violation(pc) => return Ok(Some(ReplayViolation { thread: t, pc })),
                Stop::End => {
                    return self.mismatch(t, format!("{op:?} scheduled after the thread finished"))
                }
                Stop::Global => {}
            }
            let instr = &fp.threads[t].code[self.st.pcs[t]];
            let matches = match (op, instr) {
                (ReplayOp::Write { var, .. }, Instr::StoreShared { var: v, .. })
                | (ReplayOp::Read { var, .. }, Instr::LoadShared { var: v, .. }) => v == var,
                (ReplayOp::Lock { mutex }, Instr::Lock(m))
                | (ReplayOp::Unlock { mutex }, Instr::Unlock(m)) => m == mutex,
                (ReplayOp::Spawn { child }, Instr::Spawn(c))
                | (ReplayOp::Join { child }, Instr::Join(c)) => c == child,
                (ReplayOp::Fence, Instr::Fence)
                | (ReplayOp::AtomicBegin, Instr::AtomicBegin)
                | (ReplayOp::AtomicEnd, Instr::AtomicEnd) => true,
                _ => false,
            };
            if !matches {
                return self.mismatch(
                    t,
                    format!("scheduled {op:?} but the next global instruction is {instr:?}"),
                );
            }
            let mut blocked = self.m.enabled(&self.st, t).err();
            if let (Some(Blocked::JoinUnfinished), Instr::Join(c)) = (blocked, instr) {
                // The child's trailing local code runs before the join
                // observes it as finished.
                if self.st.started[*c] {
                    match self.advance(*c, None)? {
                        Stop::Violation(pc) => return Ok(Some(ReplayViolation { thread: *c, pc })),
                        Stop::Global => {
                            return self.mismatch(
                                *c,
                                "joined thread still has unexecuted global operations",
                            )
                        }
                        Stop::End => {}
                    }
                }
                blocked = self.m.enabled(&self.st, t).err();
            }
            match blocked {
                // Atomic boundaries are ordering events only (module doc).
                None | Some(Blocked::AtomicHeld) => {}
                Some(Blocked::Undrained) => {
                    return self
                        .mismatch(t, format!("{op:?} ordered before earlier stores committed"))
                }
                Some(Blocked::MutexHeld(holder)) => {
                    return self
                        .mismatch(t, format!("{op:?} while thread {holder} holds the mutex"))
                }
                Some(Blocked::JoinUnfinished) => {
                    return self.mismatch(t, format!("{op:?} of a thread that has not finished"))
                }
            }
            if let ReplayOp::Read { var, value } = *op {
                let observed = self.m.load(&self.st, t, var);
                if observed != value {
                    let name = &fp.shared_names[var];
                    return self.mismatch(
                        t,
                        format!("read of {name} observes {observed} but the model claims {value}"),
                    );
                }
            }
            let pc = self.st.pcs[t];
            if self.m.step(&mut self.st, t, 0) == Effect::Infeasible {
                return self.mismatch(t, format!("{op:?} of a mutex this thread does not hold"));
            }
            let (depth, vars) = &mut self.atomic[t];
            match instr {
                Instr::AtomicBegin if *depth == 0 => {
                    *depth = 1;
                    *vars = block_vars(&fp.threads[t].code, pc);
                }
                Instr::AtomicBegin => *depth += 1,
                Instr::AtomicEnd => *depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if let ReplayOp::Write { var, value } = *op {
            // Under TSO/PSO the store is buffered now; it commits here.
            if let Some(i) = buffered(&self.st, var) {
                if !self.m.may_flush(self.st.buffer(t), i) {
                    return self.mismatch(t, "store commit out of FIFO order under TSO");
                }
                self.m.flush(&mut self.st, t, i);
            }
            let committed = self.st.shared[var];
            if committed != value {
                let name = &fp.shared_names[var];
                return self.mismatch(
                    t,
                    format!("store to {name} computes {committed} but the model committed {value}"),
                );
            }
        }
        Ok(None)
    }
}

/// Replays `schedule` against `fp` under `mm` with the model's
/// nondeterministic inputs (`nondet_ints` keyed by the havoc destination
/// local, e.g. `%nd_n`; `nondet_bools` by `%nb_n`).
///
/// Returns the concretely confirmed violation, or a [`ReplayError`]
/// explaining the divergence. Never panics on malformed schedules.
pub fn replay(
    fp: &FlatProgram,
    mm: MemoryModel,
    schedule: &[ScheduleStep],
    nondet_ints: &HashMap<String, u64>,
    nondet_bools: &HashMap<String, bool>,
) -> Result<ReplayViolation, ReplayError> {
    let nt = fp.threads.len();
    let total_code: usize = fp.threads.iter().map(|t| t.code.len()).sum();
    let m = Machine::new(fp, mm);
    let mut r = Replayer {
        st: m.initial(),
        m,
        nondet_ints,
        nondet_bools,
        fuel: total_code * 4 + schedule.len() * 4 + 1024,
        step: None,
        atomic: vec![(0, BTreeSet::new()); nt],
    };
    for (i, s) in schedule.iter().enumerate() {
        r.step = Some(i);
        if s.thread >= nt {
            return r.mismatch(s.thread, "schedule names a nonexistent thread");
        }
        if let Some(v) = r.do_step(s.thread, &s.op)? {
            return Ok(v);
        }
    }
    // Final sweep: trailing local code may still fire an assertion; any
    // leftover global instruction or uncommitted store is a divergence.
    r.step = None;
    for t in 0..nt {
        if !r.st.started[t] {
            continue;
        }
        match r.advance(t, None)? {
            Stop::Violation(pc) => return Ok(ReplayViolation { thread: t, pc }),
            Stop::Global => {
                return r.mismatch(t, "unconsumed global operation after the schedule ended");
            }
            Stop::End => {}
        }
        if !r.st.buffer(t).is_empty() {
            return r.mismatch(t, "schedule ended before earlier stores committed");
        }
    }
    Err(ReplayError::NoViolation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::flat::flatten;
    use crate::unroll::unroll_program;

    fn flat(p: &crate::ast::Program) -> FlatProgram {
        flatten(&unroll_program(p, 4))
    }

    fn no_nondet() -> (HashMap<String, u64>, HashMap<String, bool>) {
        (HashMap::new(), HashMap::new())
    }

    #[test]
    fn sequential_violation_replays() {
        // x := 5; assert x == 6 — the violation fires in the final sweep.
        let p = ProgramBuilder::new("seq")
            .shared("x", 0)
            .main(vec![assign("x", c(5)), assert_(eq(v("x"), c(6)))])
            .build();
        let fp = flat(&p);
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 5 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 5 },
            },
        ];
        let (ni, nb) = no_nondet();
        let r = replay(&fp, MemoryModel::Sc, &sched, &ni, &nb);
        assert!(matches!(r, Ok(ReplayViolation { thread: 0, .. })), "{r:?}");
    }

    #[test]
    fn wrong_read_value_is_a_mismatch() {
        let p = ProgramBuilder::new("seq")
            .shared("x", 0)
            .main(vec![assign("x", c(5)), assert_(eq(v("x"), c(6)))])
            .build();
        let fp = flat(&p);
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 5 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 7 }, // forged
            },
        ];
        let (ni, nb) = no_nondet();
        assert!(matches!(
            replay(&fp, MemoryModel::Sc, &sched, &ni, &nb),
            Err(ReplayError::Mismatch { step: Some(1), .. })
        ));
    }

    #[test]
    fn passing_program_reports_no_violation() {
        let p = ProgramBuilder::new("seq")
            .shared("x", 0)
            .main(vec![assign("x", c(5)), assert_(eq(v("x"), c(5)))])
            .build();
        let fp = flat(&p);
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 5 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 5 },
            },
        ];
        let (ni, nb) = no_nondet();
        assert_eq!(
            replay(&fp, MemoryModel::Sc, &sched, &ni, &nb),
            Err(ReplayError::NoViolation)
        );
    }

    #[test]
    fn tso_reorders_store_past_load_but_sc_rejects() {
        // x := 1; assert y == 1 — the model delays the store commit past
        // the load (legal under TSO, a mismatch under SC).
        let p = ProgramBuilder::new("sb1")
            .shared("x", 0)
            .shared("y", 0)
            .main(vec![assign("x", c(1)), assert_(eq(v("y"), c(1)))])
            .build();
        let fp = flat(&p);
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 1, value: 0 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 1 },
            },
        ];
        let (ni, nb) = no_nondet();
        // Under TSO the buffered store commits later; y == 0 fails the
        // assertion in the final sweep — a confirmed violation.
        assert!(replay(&fp, MemoryModel::Tso, &sched, &ni, &nb).is_ok());
        // Under SC the store may not be crossed.
        assert!(matches!(
            replay(&fp, MemoryModel::Sc, &sched, &ni, &nb),
            Err(ReplayError::Mismatch { step: Some(0), .. })
        ));
    }

    #[test]
    fn store_forwarding_observes_buffered_value() {
        // x := 1; assert x == 1 — the load forwards from the store buffer
        // even though the store commits after the load in clock order.
        let p = ProgramBuilder::new("fwd")
            .shared("x", 0)
            .main(vec![assign("x", c(1)), assert_(eq(v("x"), c(1)))])
            .build();
        let fp = flat(&p);
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 1 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 1 },
            },
        ];
        let (ni, nb) = no_nondet();
        // Forwarding makes the read see 1; no assertion fails → NoViolation.
        assert_eq!(
            replay(&fp, MemoryModel::Tso, &sched, &ni, &nb),
            Err(ReplayError::NoViolation)
        );
    }

    #[test]
    fn racy_counter_interleaving_replays() {
        // Classic lost update: both workers read 0, both write 1.
        let inc = vec![assign("r", v("c")), assign("c", add(v("r"), c(1)))];
        let p = ProgramBuilder::new("race")
            .shared("c", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("c"), c(2))),
            ])
            .build();
        let fp = flat(&p);
        let s = |thread, op| ScheduleStep { thread, op };
        let sched = vec![
            s(0, ReplayOp::Spawn { child: 1 }),
            s(0, ReplayOp::Spawn { child: 2 }),
            s(1, ReplayOp::Read { var: 0, value: 0 }),
            s(2, ReplayOp::Read { var: 0, value: 0 }),
            s(1, ReplayOp::Write { var: 0, value: 1 }),
            s(2, ReplayOp::Write { var: 0, value: 1 }),
            s(0, ReplayOp::Join { child: 1 }),
            s(0, ReplayOp::Join { child: 2 }),
            s(0, ReplayOp::Read { var: 0, value: 1 }),
        ];
        let (ni, nb) = no_nondet();
        let r = replay(&fp, MemoryModel::Sc, &sched, &ni, &nb);
        assert!(matches!(r, Ok(ReplayViolation { thread: 0, .. })), "{r:?}");
    }

    #[test]
    fn unspawned_thread_event_is_a_mismatch() {
        let p = ProgramBuilder::new("race")
            .shared("c", 0)
            .thread("w1", vec![assign("c", c(1))])
            .main(vec![spawn(1), join(1), assert_(eq(v("c"), c(0)))])
            .build();
        let fp = flat(&p);
        let sched = vec![ScheduleStep {
            thread: 1,
            op: ReplayOp::Write { var: 0, value: 1 },
        }];
        let (ni, nb) = no_nondet();
        assert!(matches!(
            replay(&fp, MemoryModel::Sc, &sched, &ni, &nb),
            Err(ReplayError::Mismatch { step: Some(0), .. })
        ));
    }

    #[test]
    fn nondet_values_drive_the_replay() {
        let p = ProgramBuilder::new("nd")
            .width(3)
            .shared("x", 0)
            .main(vec![
                assign("x", nondet("n")),
                assume(lt(v("x"), c(5))),
                assert_(ne(v("x"), c(3))),
            ])
            .build();
        let fp = flat(&p);
        // One load for the assume, one for the assert.
        let sched = vec![
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Write { var: 0, value: 3 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 3 },
            },
            ScheduleStep {
                thread: 0,
                op: ReplayOp::Read { var: 0, value: 3 },
            },
        ];
        let mut ni = HashMap::new();
        ni.insert("%nd_n".to_string(), 3u64);
        let nb = HashMap::new();
        assert!(replay(&fp, MemoryModel::Sc, &sched, &ni, &nb).is_ok());
        // A different input value makes the store mismatch.
        ni.insert("%nd_n".to_string(), 2u64);
        assert!(matches!(
            replay(&fp, MemoryModel::Sc, &sched, &ni, &nb),
            Err(ReplayError::Mismatch { .. })
        ));
    }

    fn run(
        p: &crate::ast::Program,
        mm: MemoryModel,
        sched: &[(usize, ReplayOp)],
    ) -> Result<ReplayViolation, ReplayError> {
        let sched: Vec<ScheduleStep> = sched
            .iter()
            .map(|(thread, op)| ScheduleStep {
                thread: *thread,
                op: op.clone(),
            })
            .collect();
        let (ni, nb) = no_nondet();
        replay(&flat(p), mm, &sched, &ni, &nb)
    }

    fn mismatch_at(r: Result<ReplayViolation, ReplayError>, at: usize) {
        assert!(
            matches!(r, Err(ReplayError::Mismatch { step: Some(s), .. }) if s == at),
            "{r:?}"
        );
    }

    /// `x := 1; y := 1; r := z; assert r == 1` with the two stores
    /// committed in reverse order: W→W reordering is TSO-illegal and
    /// PSO-legal, both when the stores are already buffered (crossed by
    /// the read) and when the second one commits in place.
    #[test]
    fn out_of_fifo_commit_is_rejected_under_tso_accepted_under_pso() {
        let p = ProgramBuilder::new("ww")
            .shared("x", 0)
            .shared("y", 0)
            .shared("z", 0)
            .main(vec![
                assign("x", c(1)),
                assign("y", c(1)),
                assert_(eq(v("z"), c(1))),
            ])
            .build();
        let buffered = [
            (0, ReplayOp::Read { var: 2, value: 0 }),
            (0, ReplayOp::Write { var: 1, value: 1 }),
            (0, ReplayOp::Write { var: 0, value: 1 }),
        ];
        mismatch_at(run(&p, MemoryModel::Tso, &buffered), 1);
        assert!(run(&p, MemoryModel::Pso, &buffered).is_ok());
        let in_place = [
            (0, ReplayOp::Write { var: 1, value: 1 }),
            (0, ReplayOp::Write { var: 0, value: 1 }),
            (0, ReplayOp::Read { var: 2, value: 0 }),
        ];
        mismatch_at(run(&p, MemoryModel::Tso, &in_place), 0);
        assert!(run(&p, MemoryModel::Pso, &in_place).is_ok());
    }

    fn two_lockers() -> crate::ast::Program {
        ProgramBuilder::new("locks")
            .shared("x", 0)
            .mutex("m")
            .thread("t1", vec![lock("m"), assign("x", c(1)), unlock("m")])
            .thread("t2", vec![lock("m"), assign("x", c(2)), unlock("m")])
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("x"), c(0))),
            ])
            .build()
    }

    #[test]
    fn lock_while_held_is_a_mismatch() {
        let sched = [
            (0, ReplayOp::Spawn { child: 1 }),
            (0, ReplayOp::Spawn { child: 2 }),
            (1, ReplayOp::Lock { mutex: 0 }),
            (2, ReplayOp::Lock { mutex: 0 }),
        ];
        for mm in MemoryModel::ALL {
            mismatch_at(run(&two_lockers(), mm, &sched), 3);
        }
    }

    #[test]
    fn unlock_not_held_is_a_mismatch() {
        // Built unvalidated: main releases a mutex it never acquired.
        let p = ProgramBuilder::new("unheld")
            .shared("x", 0)
            .mutex("m")
            .main(vec![unlock("m"), assert_(eq(v("x"), c(1)))])
            .build();
        for mm in MemoryModel::ALL {
            mismatch_at(run(&p, mm, &[(0, ReplayOp::Unlock { mutex: 0 })]), 0);
        }
    }

    /// A fence or unlock scheduled while the thread's own store is still
    /// buffered would let the store overtake a full barrier.
    #[test]
    fn fence_or_unlock_with_undrained_buffer_is_a_mismatch() {
        let fenced = ProgramBuilder::new("fenced")
            .shared("x", 0)
            .main(vec![assign("x", c(1)), fence(), assert_(eq(v("x"), c(0)))])
            .build();
        let sched = [
            (0, ReplayOp::Fence),
            (0, ReplayOp::Write { var: 0, value: 1 }),
        ];
        for mm in [MemoryModel::Tso, MemoryModel::Pso] {
            mismatch_at(run(&fenced, mm, &sched), 0);
        }
        let sched = [
            (0, ReplayOp::Spawn { child: 1 }),
            (0, ReplayOp::Spawn { child: 2 }),
            (1, ReplayOp::Lock { mutex: 0 }),
            (1, ReplayOp::Unlock { mutex: 0 }),
        ];
        for mm in [MemoryModel::Tso, MemoryModel::Pso] {
            mismatch_at(run(&two_lockers(), mm, &sched), 3);
        }
    }

    /// `t1: atomic { r := x; x := r + 1 }` while `t2` stores 5 to `var`;
    /// main asserts `x == 5`.
    fn atomic_increment_and_store_to(var: &str) -> crate::ast::Program {
        ProgramBuilder::new("atomic")
            .shared("x", 0)
            .shared("y", 0)
            .thread(
                "t1",
                atomic(vec![assign("r", v("x")), assign("x", add(v("r"), c(1)))]),
            )
            .thread("t2", vec![assign(var, c(5))])
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("x"), c(5))),
            ])
            .build()
    }

    /// The schedule runs `t2`'s store to shared variable `var` between
    /// `t1`'s `AtomicBegin` and `AtomicEnd`.
    fn store_inside_atomic(var: usize) -> [(usize, ReplayOp); 10] {
        [
            (0, ReplayOp::Spawn { child: 1 }),
            (0, ReplayOp::Spawn { child: 2 }),
            (1, ReplayOp::AtomicBegin),
            (1, ReplayOp::Read { var: 0, value: 0 }),
            (2, ReplayOp::Write { var, value: 5 }),
            (1, ReplayOp::Write { var: 0, value: 1 }),
            (1, ReplayOp::AtomicEnd),
            (0, ReplayOp::Join { child: 1 }),
            (0, ReplayOp::Join { child: 2 }),
            (0, ReplayOp::Read { var: 0, value: 1 }),
        ]
    }

    /// Another thread's write of a variable the atomic block accesses,
    /// scheduled inside the block, breaks the block's exclusion.
    #[test]
    fn write_of_a_block_variable_inside_an_atomic_section_is_a_mismatch() {
        for mm in MemoryModel::ALL {
            let r = run(
                &atomic_increment_and_store_to("x"),
                mm,
                &store_inside_atomic(0),
            );
            mismatch_at(r, 4);
        }
    }

    /// An atomic section excludes only its block's variables: a write of
    /// another variable at the same point replays.
    #[test]
    fn write_of_another_variable_inside_an_atomic_section_replays() {
        for mm in MemoryModel::ALL {
            let r = run(
                &atomic_increment_and_store_to("y"),
                mm,
                &store_inside_atomic(1),
            );
            assert!(
                matches!(r, Ok(ReplayViolation { thread: 0, .. })),
                "{mm}: {r:?}"
            );
        }
    }

    #[test]
    fn join_of_thread_with_pending_global_op_is_a_mismatch() {
        let p = ProgramBuilder::new("pending")
            .shared("x", 0)
            .shared("r", 0)
            .thread("t", vec![assign("r", v("x"))])
            .main(vec![spawn(1), join(1), assert_(eq(v("r"), c(1)))])
            .build();
        let sched = [
            (0, ReplayOp::Spawn { child: 1 }),
            (0, ReplayOp::Join { child: 1 }),
        ];
        for mm in MemoryModel::ALL {
            mismatch_at(run(&p, mm, &sched), 1);
        }
    }
}
