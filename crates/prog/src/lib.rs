//! # zpre-prog — concurrent program IR, BMC front-end, reference checkers
//!
//! The program-side substrate of the `zpre` stack:
//!
//! - [`ast`] — a concurrent mini-language covering what the SV-COMP
//!   *ConcurrencySafety* programs exercise (threads, mutexes, atomics,
//!   fences, bounded loops, nondeterminism, assume/assert), plus a builder
//!   DSL for the workload generators;
//! - [`unroll`] — bounded loop unrolling with unwinding assumptions (the
//!   BMC step of §5);
//! - [`ssa`] — SSA conversion by symbolic execution: global events with
//!   guards and SSA value variables, the input to the partial-order encoder;
//! - [`flat`] + [`interp`] — lowering to shared-access-granular
//!   micro-instructions and an exhaustive explicit-state SC checker, the
//!   *oracle* the SMT pipeline is cross-validated against;
//! - [`wmm`] — operational TSO/PSO store-buffer checkers for litmus-level
//!   cross-validation of the weak-memory encodings;
//! - [`replay`](mod@replay) — schedule-driven witness replay on a buffered store
//!   machine, the independent oracle behind certified `Unsafe` verdicts;
//! - [`pretty`] — C-like pretty-printing.

#![warn(missing_docs)]

pub mod ast;
pub mod flat;
pub mod interp;
pub mod parse;
pub mod pretty;
pub mod replay;
pub mod ssa;
pub mod trace;
pub mod unroll;
pub mod wmm;

pub use ast::{build, BoolExpr, IntExpr, Program, Stmt, Thread};
pub use flat::{flatten, FlatProgram, Instr};
pub use interp::{check_sc, Limits, Outcome};
pub use parse::{parse_program, ParseError};
pub use replay::{replay, ReplayError, ReplayOp, ReplayViolation, ScheduleStep};
pub use ssa::{to_ssa, AtomicBlock, Event, EventKind, SsaProgram};
pub use trace::{parse_program_traced, to_ssa_traced, unroll_program_traced};
pub use unroll::{
    sweep_marker_remaining, unroll_program, unroll_program_sweep, SweepUnrolled,
    SWEEP_MARKER_PREFIX,
};
pub use wmm::{check_wmm, MemoryModel};
