//! # zpre-bv — bit-vector terms and Tseitin bit-blasting
//!
//! The data-path substrate of the `zpre` stack: a hash-consed bit-vector /
//! Boolean term language ([`TermStore`]) and a CNF bit-blaster
//! ([`Blaster`]) targeting any [`ClauseSink`] (notably
//! `zpre_sat::Solver`). It plays the role CBMC's flattener plays for the
//! QF_ABV verification conditions in the paper's pipeline.
//!
//! Bit order is little-endian (index 0 = LSB); arithmetic wraps, matching
//! machine-integer semantics of the encoded programs. [`TermStore::eval`]
//! provides reference semantics used by the test-suite to validate every
//! circuit.

#![warn(missing_docs)]

pub mod blast;
pub mod hash;
pub mod term;

pub use blast::{lits_to_u64, Blaster, ClauseSink};
pub use hash::FastMap;
pub use term::{sign_extend, truncate, Sort, TermId, TermKind, TermStore, Value};
