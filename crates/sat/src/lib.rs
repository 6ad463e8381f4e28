//! # zpre-sat — a CDCL(T) SAT core with theory hooks and decision guides
//!
//! This crate is the search engine underneath the `zpre` verification stack,
//! a from-scratch reproduction of the solver role Z3 plays in
//! *Interference Relation-Guided SMT Solving for Multi-Threaded Program
//! Verification* (PPoPP 2022).
//!
//! It provides:
//!
//! - a conflict-driven clause-learning SAT solver ([`Solver`]) with
//!   two-watched-literal propagation, first-UIP learning with recursive
//!   minimization, VSIDS + phase saving, LBD-based clause-database
//!   reduction, and Luby restarts;
//! - a background-theory interface ([`Theory`]) for DPLL(T)-style eager
//!   theory integration (used by the event-order theory in `zpre-smt`);
//! - a decision-guide interface ([`DecisionGuide`]) consulted *before* the
//!   built-in VSIDS heuristic — the integration point for the paper's
//!   interference-relation decision order ([`PriorityListGuide`]).
//!
//! ## Example
//!
//! ```
//! use zpre_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.positive(), b.positive()]);
//! s.add_clause(&[a.negative()]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.model_value(b.positive()).is_true());
//! ```

#![warn(missing_docs)]

pub mod clause;
pub mod guide;
pub mod heap;
pub mod lists;
pub mod lit;
pub mod proof;
pub mod share;
pub mod solver;
pub mod stats;
pub mod theory;

pub use clause::{CRef, ClauseDb};
pub use guide::{AssignView, DecisionGuide, NoGuide, PriorityListGuide};
pub use lists::Lists;
pub use lit::{LBool, Lit, Var};
pub use proof::{Proof, ProofStep};
pub use share::{MemberEndpoint, ShareClass, ShareConfig, ShareSpec, SharedClause, SharedPool};
pub use solver::{SolveResult, Solver};
pub use stats::{Budget, CancelToken, ExhaustionReason, Stats};
pub use theory::{NoTheory, Theory, TheoryConflict, TheoryOut};
