//! Typed verification errors: every failure mode of the pipeline that used
//! to be a panic, as a value the caller can match on.
//!
//! The `try_*` entry points of [`crate::verifier`] return these; the
//! panicking wrapper `verify` preserves the historical
//! behaviour by unwrapping. The quarantined step that every portfolio
//! member and batch-ladder rung runs through additionally converts a run
//! that panics despite all of this into [`VerifyError::MemberPanic`] via
//! `catch_unwind`, so one bad member degrades the race (or one bad rung
//! its task) instead of crashing it.

use std::fmt;
use zpre_encoder::EncodeError;
use zpre_prog::ast::ValidationError;
use zpre_sat::ExhaustionReason;

/// Why a verification run could not produce a trustworthy verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The input program is malformed (e.g. references an unknown thread).
    InvalidProgram(String),
    /// The encoder rejected the SSA program.
    Encode(EncodeError),
    /// Verdict certification failed: the proof, a theory lemma, or the
    /// witness replay could not be independently confirmed. Stage
    /// `"replay"` is a `Sat` model that is no execution of the program —
    /// the solver, theory, blaster, and encoder disagree about what it
    /// means — and can end any run, certified or not.
    Certification {
        /// Which certification stage rejected the verdict (`"proof"`,
        /// `"lemma"` or `"replay"`; `"prune"` for a pruning justification
        /// or symmetry witness, `"sweep"` for a certified sweep).
        stage: &'static str,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A portfolio member or batch-ladder rung panicked and was
    /// quarantined.
    MemberPanic {
        /// The member's display name (the rung's strategy name).
        member: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Every attempt to decide the task ran out of resources: the batch
    /// harness exhausted its whole degradation ladder and the bottom rung
    /// still returned `Unknown` for this reason.
    Exhausted(ExhaustionReason),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            VerifyError::Encode(e) => write!(f, "encoding failed: {e}"),
            VerifyError::Certification { stage, reason } => {
                write!(f, "certification failed at {stage} stage: {reason}")
            }
            VerifyError::MemberPanic { member, message } => {
                write!(f, "portfolio member {member} panicked: {message}")
            }
            VerifyError::Exhausted(reason) => {
                write!(f, "resources exhausted ({reason})")
            }
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EncodeError> for VerifyError {
    fn from(e: EncodeError) -> VerifyError {
        VerifyError::Encode(e)
    }
}

impl From<ValidationError> for VerifyError {
    fn from(e: ValidationError) -> VerifyError {
        VerifyError::InvalidProgram(e.to_string())
    }
}
