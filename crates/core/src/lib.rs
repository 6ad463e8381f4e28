//! # zpre — interference relation-guided SMT solving for multi-threaded
//! program verification
//!
//! A from-scratch Rust reproduction of Fan, Liu & He,
//! *Interference Relation-Guided SMT Solving for Multi-Threaded Program
//! Verification* (PPoPP 2022), together with every substrate the system
//! needs: a CDCL(T) solver core (`zpre-sat`), an event-order theory
//! (`zpre-smt`), a bit-blaster (`zpre-bv`), a concurrent-program BMC
//! front-end (`zpre-prog`), and the partial-order encoder
//! (`zpre-encoder`).
//!
//! This crate is the paper's contribution proper:
//!
//! - [`decision_order`](mod@decision_order) — the H1–H4 heuristics producing the interference
//!   decision order (`prior_to` of §4.1);
//! - [`strategy`] — baseline / `ZPRE⁻` / `ZPRE` / ablation strategies;
//! - [`verifier`] — the end-to-end pipeline with the enhanced `decide()`
//!   installed into the CDCL(T) loop (Fig. 5);
//! - [`certify`] — independent evidence for verdicts: the replay of every
//!   extracted counterexample execution through the concrete machine, and
//!   under `certify` the RUP check of every Safe proof;
//! - `session` (crate-private) — the one solver set-up (theory, encoding,
//!   observers, share endpoint, decision order and guide) and the one
//!   solve step over an assumption frame, shared by [`verifier`],
//!   [`incremental`] and every [`portfolio`] member;
//! - [`portfolio`] — one race whose members run single-bound verifies or
//!   whole sweeps, and [`bmc`] — one bound loop around any
//!   single-bound step, so every mode composes with every other. Every
//!   one of them returns a [`VerifyOutcome`] with one frame per bound;
//! - [`smtlib`] — the solved instance printed as SMT-LIB 2, with the
//!   paper's `rf_*`/`ws_*` names and integer clocks.
//!
//! ## Quickstart
//!
//! ```
//! use zpre::prelude::*;
//!
//! // Two threads race on `cnt`; the assertion can fail.
//! let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
//! let program = ProgramBuilder::new("racy-counter")
//!     .shared("cnt", 0)
//!     .thread("w1", inc.clone())
//!     .thread("w2", inc)
//!     .main(vec![
//!         spawn(1), spawn(2), join(1), join(2),
//!         assert_(eq(v("cnt"), c(2))),
//!     ])
//!     .build();
//!
//! let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
//! let outcome = verify(&program, &opts);
//! assert_eq!(outcome.verdict, Verdict::Unsafe);
//! ```

#![warn(missing_docs)]

pub mod bmc;
pub mod certify;
pub mod decision_order;
pub mod errors;
pub mod faults;
pub mod harness;
pub mod incremental;
pub mod portfolio;
mod session;
pub mod smtlib;
pub mod strategy;
pub mod trace;
pub mod verifier;

pub use bmc::{verify_bmc, verify_bmc_with};
pub use certify::Certificate;
pub use decision_order::{decision_order, prior_to, Refinements};
pub use errors::VerifyError;
pub use faults::{BatchFault, Fault};
pub use harness::{
    run_batch, BatchOptions, BatchOutcome, BatchTask, LadderRung, RungRecord, TaskReport,
};
pub use incremental::{try_verify_sweep, try_verify_sweep_full, try_verify_sweep_resumed};
pub use portfolio::{
    try_verify_portfolio_sweep, verify_portfolio, MemberResult, PortfolioMember, PortfolioOptions,
    PortfolioOutcome,
};
pub use smtlib::dump_smtlib;
pub use strategy::Strategy;
pub use trace::{Trace, TraceStep};
pub use verifier::{try_verify, verify, FrameOutcome, Verdict, VerifyOptions, VerifyOutcome};
pub use zpre_sat::{ExhaustionReason, ShareConfig, ShareSpec};

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::{
        try_verify, verify, verify_portfolio, Certificate, PortfolioOptions, PortfolioOutcome,
        Strategy, Verdict, VerifyError, VerifyOptions, VerifyOutcome,
    };
    pub use zpre_prog::build::*;
    pub use zpre_prog::{MemoryModel, Program, Stmt};
}
