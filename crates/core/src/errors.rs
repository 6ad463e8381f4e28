//! Typed verification errors: every failure mode of the pipeline that used
//! to be a panic, as a value the caller can match on.
//!
//! The `try_*` entry points of [`crate::verifier`] return these; the
//! panicking wrapper `verify` preserves the historical
//! behaviour by unwrapping. The portfolio layer additionally converts a
//! member that panics despite all of this into [`VerifyError::MemberPanic`]
//! via `catch_unwind`, so one bad member degrades the race instead of
//! crashing it.

use std::fmt;
use zpre_encoder::EncodeError;
use zpre_sat::ExhaustionReason;

/// Why a verification run could not produce a trustworthy verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The input program is malformed (e.g. references an unknown thread).
    InvalidProgram(String),
    /// The encoder rejected the SSA program.
    Encode(EncodeError),
    /// A `Sat` model failed the deep validation pass — the solver, theory,
    /// blaster, and encoder disagree about what the model means.
    ModelValidation(String),
    /// Verdict certification failed: the proof, a theory lemma, or the
    /// witness replay could not be independently confirmed.
    Certification {
        /// Which certification stage rejected the verdict
        /// (`"proof"`, `"lemma"`, or `"replay"`).
        stage: &'static str,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A portfolio member panicked and was quarantined.
    MemberPanic {
        /// The member's display name.
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
            VerifyError::ModelValidation(msg) => {
                write!(f, "extracted execution failed validation: {msg}")
            }
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

/// The message of a panic caught by `catch_unwind`, when its payload is a
/// string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}
