//! # zpre-smt — DPLL(T) layer: event-order theory and variable taxonomy
//!
//! This crate hosts the theory side of the CDCL(T) stack used by `zpre`:
//!
//! - [`order::OrderTheory`] — the event-order-graph acyclicity theory. All
//!   `clk(e₁) < clk(e₂)` atoms of the partial-order encoding become edges;
//!   an assignment is theory-consistent iff the graph is acyclic, which is
//!   exactly the validity criterion for symbolic concurrent executions
//!   (§3.3 of the paper, after Shasha & Snir).
//! - [`kinds::VarRegistry`] — the Boolean-abstraction taxonomy (`V_ssa`,
//!   `V_ord`, `V_rf`, `V_ws`) that the decision-order generator consumes.
//!
//! The theory plugs into [`zpre_sat::Solver`] through the
//! [`zpre_sat::Theory`] trait.

#![warn(missing_docs)]

pub mod certcheck;
pub mod kinds;
pub mod order;

pub use certcheck::{check_lemma, FixedEdges};
pub use kinds::{rf_name, ws_name, ClassCounts, VarKind, VarRegistry};
pub use order::graph::{CycleStats, OrderGraph};
pub use order::{CycleEdge, NodeId, OrderTheory};
