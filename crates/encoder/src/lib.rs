//! # zpre-encoder — partial-order verification-condition encoding
//!
//! Encodes an SSA-form multi-threaded program (from `zpre-prog`) as a
//! CDCL(T) problem over the event-order theory (from `zpre-smt`) with a
//! bit-blasted data path (from `zpre-bv`), under SC, TSO or PSO:
//!
//! Φ = Φ_ssa ∧ Φ_po ∧ Φ_rf ∧ Φ_rf_some ∧ Φ_ws ∧ Φ_fr ∧ Φ_err
//!
//! exactly following §3.1 of *Interference Relation-Guided SMT Solving for
//! Multi-Threaded Program Verification* (PPoPP'22), with mutexes and
//! `__VERIFIER_atomic` sections encoded by interference-class
//! serialization selectors (see DESIGN.md for the substitution note).
//!
//! The encoder also produces the variable taxonomy (`V_ssa`, `V_ord`,
//! `V_rf`, `V_ws`) that the decision-order generator in the `zpre` core
//! crate consumes.

#![warn(missing_docs)]

pub mod encode;
pub mod sweep;

pub use encode::{
    encode, estimate_cnf, try_encode, try_encode_opts, try_encode_traced, CnfEstimate, EncodeError,
    Encoded, ResolvedRead, RfVar, WsVar,
};
pub use sweep::SweepFrames;
