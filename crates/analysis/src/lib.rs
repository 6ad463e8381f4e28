//! # zpre-analysis — pre-encoding static analyses
//!
//! The source-level analysis layer that runs between SSA conversion and
//! the partial-order encoder. It owns everything that can be decided about
//! a program *before* the solver sees a single clause:
//!
//! - [`memory_model`] — preserved program order per memory model
//!   (SC/TSO/PSO), spawn/join synchronization edges, and the dense
//!   transitive closure [`PoClosure`] (the static must-happen-before
//!   relation);
//! - [`prune`] — the interference-pruning pass: must-happen-before,
//!   lockset and thread-locality analyses cooperate to shrink the
//!   `V_rf`/`V_ws` selector sets the encoder would otherwise emit, each
//!   removal carrying a machine-checkable [`Justification`];
//! - [`symmetry`] — adjacent threads identical up to a renaming of their
//!   locals, each pair carrying its event and leaf bijection;
//! - [`check`] — an independent re-checker for those justifications, used
//!   by `--certify` and the debug oracle: every pruned pair's evidence is
//!   re-walked against the raw SSA event stream without trusting the
//!   closure that produced it.
//!
//! The encoder consumes a [`PruneReport`]; nothing in this crate depends
//! on the solver, the theory, or the bit-blaster, so the pass is reusable
//! by any downstream encoding.

#![warn(missing_docs)]

pub mod check;
pub mod memory_model;
pub mod prune;
pub mod symmetry;

pub use check::check_report;
pub use memory_model::{po_pairs, preserved, PoClosure, ProgramOrder};
pub use prune::{analyze, guard_implies, Justification, PruneCounters, PruneReport};
pub use symmetry::{symmetric_pairs, SymPair};
