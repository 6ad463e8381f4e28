//! Verdict certification: independent evidence checking for both verdicts.
//!
//! A verifier bug should never silently become a wrong verdict. Each
//! definitive verdict is re-established from first principles by machinery
//! that shares as little code as possible with the solving pipeline — the
//! `Unsafe` half on every satisfiable frame of every driver, the `Safe`
//! half with [`crate::VerifyOptions::certify`] enabled:
//!
//! - **Safe** — the solver's DRAT proof is re-checked by forward RUP over
//!   the logged input CNF. Theory lemmas (clauses the order theory asserted
//!   from event-order-graph cycles, locally or in a portfolio peer) are not
//!   trusted: the standalone checker in `zpre_smt::certcheck` re-derives
//!   each one's cycle from the clause alone — the edges its negation
//!   asserts, plus the fixed program-order edges, must contain a cycle.
//!   Once every lemma is re-derived, `CNF ∧ lemmas ⊢ ⊥` propositionally,
//!   which is exactly unsatisfiability of the verification condition.
//! - **Unsafe** — the extracted witness is replayed through the concrete
//!   buffered-store machine in `zpre_prog::replay`: the model's event order
//!   (which must be acyclic) becomes a schedule, its nondeterministic
//!   inputs become concrete values, and the replay must drive the flat
//!   program into an assertion that concretely fires. A bound sweep replays
//!   against its marker-instrumented program at the horizon: the unwinding
//!   markers are nondeterministic Booleans like any other, and the model of
//!   frame `k` sets the markers of deeper iterations false. Under `certify`
//!   the verdict's [`Certificate::Unsafe`] reports this replay.
//!
//! Both checks fail closed: any divergence is a typed
//! [`VerifyError::Certification`], and the fault-injection matrix in
//! `tests/` exercises exactly these rejection paths.

use crate::errors::VerifyError;
use crate::faults::{self, Fault};
use crate::trace::{extract_trace, ModelView, Trace};
use std::collections::{HashMap, HashSet};
use zpre_encoder::Encoded;
use zpre_obs::{Phase, Recorder};
use zpre_prog::{replay, FlatProgram, MemoryModel, ReplayOp, ScheduleStep, SsaProgram};
use zpre_sat::{Lit, PriorityListGuide, ProofStep, Solver};
use zpre_smt::{check_lemma, FixedEdges, OrderTheory};

/// Independent evidence that a verdict is correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The Safe verdict's proof was RUP-checked end to end.
    Safe {
        /// Distinct theory lemmas whose cycles were re-derived.
        lemmas_checked: usize,
        /// Total steps of the checked proof.
        proof_steps: usize,
    },
    /// The Unsafe verdict's witness was replayed concretely (the replay
    /// every `Unsafe` answer goes through).
    Unsafe {
        /// Scheduled global events the replay confirmed.
        replayed_steps: usize,
    },
}

impl Certificate {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        match self {
            Certificate::Safe {
                lemmas_checked,
                proof_steps,
            } => format!(
                "proof RUP-checked ({proof_steps} steps, {lemmas_checked} theory lemmas re-derived)"
            ),
            Certificate::Unsafe { replayed_steps } => {
                format!("witness replayed concretely ({replayed_steps} scheduled events)")
            }
        }
    }
}

/// Certifies a Safe verdict: re-derives the EOG cycle of every distinct
/// theory lemma from its clause with the standalone checker, then
/// forward-RUP-checks the full proof against the logged CNF with the
/// checked lemmas as axioms.
pub(crate) fn certify_safe(
    solver: &mut Solver<OrderTheory, PriorityListGuide>,
    fault: Option<Fault>,
    rec: Option<&Recorder>,
) -> Result<Certificate, VerifyError> {
    let _certify_span = rec.map(|r| r.span(Phase::Certify));
    let reject = |stage, reason: String| VerifyError::Certification { stage, reason };
    let mut proof = solver
        .take_proof()
        .ok_or_else(|| reject("proof", "proof logging was not enabled".to_string()))?;
    if let Some(f) = fault {
        faults::corrupt_proof(f, &mut proof);
    }

    // The theory has backtracked to the root by now, so only atom
    // registrations and fixed program-order edges remain — exactly the
    // ground truth the checker needs.
    let theory = &solver.theory;
    let fixed = FixedEdges::of(theory);
    let mut checked: HashSet<&[Lit]> = HashSet::new();
    for step in &proof.steps {
        let ProofStep::Lemma(clause) = step else {
            continue;
        };
        if checked.insert(clause) {
            check_lemma(clause, |v| theory.atom_nodes(v), &fixed)
                .map_err(|e| reject("lemma", format!("theory lemma {clause:?} rejected: {e}")))?;
        }
    }

    let proof_steps = proof.steps.len();
    zpre_sat::proof::check_with_lemmas(solver.logged_cnf(), &proof, |clause| {
        checked.contains(clause)
    })
    .map_err(|i| {
        let reason = if i == proof_steps {
            "proof never derives the empty clause".to_string()
        } else {
            format!("RUP check failed at proof step {i} of {proof_steps}")
        };
        reject("proof", reason)
    })?;

    Ok(Certificate::Safe {
        lemmas_checked: checked.len(),
        proof_steps,
    })
}

/// An `Unsafe` frame's execution, confirmed by replay.
pub(crate) struct Witness {
    /// The model's execution in clock order.
    pub trace: Trace,
    /// Scheduled global events the replay confirmed.
    pub replayed_steps: usize,
}

/// Checks the model of an `Unsafe` answer: extracts its execution, turns
/// it into a schedule plus concrete nondeterministic inputs and replays it
/// through the buffered-store machine; the replay must end in a fired
/// assertion. `flat` is the unrolled program the SSA came from, lowered.
pub(crate) fn certify_unsafe(
    ssa: &SsaProgram,
    enc: &Encoded,
    solver: &Solver<OrderTheory, PriorityListGuide>,
    mm: MemoryModel,
    flat: &FlatProgram,
    fault: Option<Fault>,
    rec: Option<&Recorder>,
) -> Result<Witness, VerifyError> {
    let _replay_span = rec.map(|r| r.span(Phase::Replay));
    let reject = |reason: String| VerifyError::Certification {
        stage: "replay",
        reason,
    };
    if ssa.shared_names != flat.shared_names {
        return Err(reject(
            "flat program and SSA program disagree on shared variables".to_string(),
        ));
    }
    let trace = extract_trace(ssa, enc, solver, mm)
        .ok_or_else(|| reject("event order graph of the model is cyclic".to_string()))?;

    // The schedule: the model's executed events in clock order, minus the
    // initializer writes (the flat program has no initializer instructions;
    // `shared_init` supplies those values, and every scheduled event is
    // ordered after the initializers by construction).
    let num_inits = ssa.shared_names.len();
    let mut schedule: Vec<ScheduleStep> = trace
        .steps
        .iter()
        .filter(|s| s.event >= num_inits)
        .map(|s| ScheduleStep {
            thread: s.thread,
            op: s.op.clone(),
        })
        .collect();

    if fault == Some(Fault::FlipModelBit) {
        let target = schedule.iter_mut().find_map(|s| match &mut s.op {
            ReplayOp::Write { value, .. } | ReplayOp::Read { value, .. } => Some(value),
            _ => None,
        });
        if let Some(value) = target {
            *value ^= 1;
        }
    }

    // Concrete nondeterministic inputs, read off the model. SSA names a
    // nondet `nd!{name}` / `ndb!{name}`; the flat lowering binds the same
    // occurrence to the local `%nd_{name}` / `%nb_{name}`.
    let model = ModelView::new(ssa, enc, solver);
    let mut nondet_ints: HashMap<String, u64> = HashMap::new();
    for full in &ssa.nondet_names {
        let name = full.strip_prefix("nd!").unwrap_or(full);
        nondet_ints.insert(format!("%nd_{name}"), model.bv_val(full));
    }
    let mut nondet_bools: HashMap<String, bool> = HashMap::new();
    for full in enc.blaster.bool_inputs.keys() {
        if let Some(name) = full.strip_prefix("ndb!") {
            nondet_bools.insert(format!("%nb_{name}"), model.bool_val(full));
        }
    }

    match replay(flat, mm, &schedule, &nondet_ints, &nondet_bools) {
        Ok(_violation) => Ok(Witness {
            trace,
            replayed_steps: schedule.len(),
        }),
        Err(e) => Err(reject(e.to_string())),
    }
}
