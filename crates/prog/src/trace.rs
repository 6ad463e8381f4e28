//! Traced front-end entry points: the same parse / unroll / SSA passes,
//! wrapped in `zpre-obs` phase spans when a [`Recorder`] is supplied.
//!
//! Callers that don't trace pass `None` and pay nothing; the verifier and
//! CLI pass their recorder so front-end time shows up in the phase profile
//! alongside encode/solve.

use zpre_obs::{Phase, Recorder};

use crate::ast::{Program, ValidationError};
use crate::parse::{parse_program, ParseError};
use crate::ssa::{to_ssa_validated, SsaProgram};
use crate::unroll::unroll_program;

/// [`parse_program`] under a `parse` phase span.
pub fn parse_program_traced(src: &str, rec: Option<&Recorder>) -> Result<Program, ParseError> {
    let _span = rec.map(|r| r.span(Phase::Parse));
    parse_program(src)
}

/// [`unroll_program`] under an `unroll` phase span.
pub fn unroll_program_traced(prog: &Program, bound: u32, rec: Option<&Recorder>) -> Program {
    let _span = rec.map(|r| r.span(Phase::Unroll));
    unroll_program(prog, bound)
}

/// [`to_ssa`](crate::to_ssa) under an `ssa` phase span, with a program
/// that fails [`Program::validate`] as an error rather than a panic.
pub fn to_ssa_traced(
    prog: &Program,
    rec: Option<&Recorder>,
) -> Result<SsaProgram, ValidationError> {
    let _span = rec.map(|r| r.span(Phase::Ssa));
    prog.validate()?;
    Ok(to_ssa_validated(prog))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "shared int x = 0;\n\
        thread main { spawn(t0); join(t0); assert(x == 1); }\n\
        thread t0 { x = 1; }\n";

    #[test]
    fn traced_passes_match_untraced() {
        let rec = Recorder::default();
        let p1 = parse_program_traced(SRC, Some(&rec)).expect("parse");
        let p2 = parse_program(SRC).expect("parse");
        let u1 = unroll_program_traced(&p1, 2, Some(&rec));
        let u2 = unroll_program(&p2, 2);
        let s1 = to_ssa_traced(&u1, Some(&rec)).expect("valid");
        let s2 = crate::to_ssa(&u2);
        assert_eq!(s1.events.len(), s2.events.len());
        let snap = rec.snapshot();
        let phases: Vec<Phase> = snap.spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec![Phase::Parse, Phase::Unroll, Phase::Ssa]);
        assert!(snap.spans.iter().all(|s| s.closed && s.depth == 0));
    }

    #[test]
    fn none_recorder_is_accepted() {
        let p = parse_program_traced(SRC, None).expect("parse");
        let u = unroll_program_traced(&p, 1, None);
        assert!(to_ssa_traced(&u, None).is_ok());
    }
}
